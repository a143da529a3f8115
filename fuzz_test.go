package gdsx

// FuzzCompileRun drives arbitrary source text through the full
// frontend (lexer, parser, semantic analysis) and, when it compiles,
// through the engine with its optimization pipeline off and on, under
// tight operation and memory bounds. The frontend must reject garbage
// with an error — never a panic — and both configurations must agree
// on the outcome of whatever survives to execution.

import (
	"errors"
	"testing"

	"gdsx/internal/interp"
	"gdsx/internal/workloads"
)

func FuzzCompileRun(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source(workloads.Test))
	}
	for _, a := range workloads.AdversarialAll() {
		f.Add(a.Profile(workloads.Test))
		f.Add(a.Expose(workloads.Test))
	}
	for _, a := range workloads.AdaptiveAll() {
		f.Add(a.Profile(workloads.Test))
		f.Add(a.Expose(workloads.Test))
	}
	f.Add(`int main() { return 0; }`)
	f.Add(`int g; int main() { int *p = &g; *p = 3; return g; }`)
	f.Add(`int main() { parallel for (;;) {} }`)
	// Address-taken locals: the register-promotion analysis must demote
	// exactly these, so aliasing stores stay visible to later reads.
	f.Add(`int main() { int a = 1; int *p = &a; *p = 7; return a + *p; }`)
	f.Add(`int set(int *x) { *x = 9; return *x; }
int main() { int a = 2; int b = set(&a); return a * 10 + b; }`)
	f.Add(`int main() {
	int i; int a; int s = 0;
	for (i = 0; i < 4; i++) { int *p = &a; a = i; s = s + *p + (int)sizeof a; }
	return s;
}`)

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile("fuzz.c", src)
		if err != nil {
			return // rejected cleanly — the only requirement for invalid input
		}
		// Keep runs tiny: fuzz inputs that compile are usually mutations
		// of the seed workloads and can contain unbounded loops.
		opts := RunOptions{
			MaxOps:  200000,
			MemSize: 1 << 22,
			Threads: 2,
		}
		// Parallel phase: robustness only. A mutated source can carry
		// parallel annotations on loops the expansion never sanctioned,
		// so parallel outcomes are nondeterministic (racy stores, and the
		// per-worker operation budget fires on whichever worker the
		// dynamic DOACROSS schedule loads most). The requirement here is
		// containment: any failure must be a structured RuntimeError, not
		// a process panic, deadlock, or hang.
		for _, lv := range optLevels {
			o := opts
			o.Opt = lv.opt
			if _, rerr := prog.Run(o); rerr != nil {
				var re interp.RuntimeError
				if !errors.As(rerr, &re) {
					t.Fatalf("%s: unstructured failure %T: %v", lv.name, rerr, rerr)
				}
			}
		}
		// Chaos phase: the same parallel containment requirement must
		// hold with region recovery plus forced rollbacks — the ladder's
		// snapshot/rollback/re-execute machinery must never turn a
		// mutated source into a panic or a hang.
		{
			o := opts
			o.Recover = &RecoverySpec{}
			o.FaultPlan = &FaultPlan{RollbackEvery: 3}
			if _, rerr := prog.Run(o); rerr != nil {
				var re interp.RuntimeError
				if !errors.As(rerr, &re) {
					t.Fatalf("chaos run: unstructured failure %T: %v", rerr, rerr)
				}
			}
		}
		// Sequential phase: full differential. Deterministic execution
		// must produce identical output, exit code, and failure from both
		// configurations.
		type outcome struct {
			out  string
			exit int64
			err  error
		}
		var results [2]outcome
		for i, lv := range optLevels {
			o := opts
			o.Opt = lv.opt
			o.ForceSequential = true
			res, rerr := prog.Run(o)
			if rerr != nil {
				var re interp.RuntimeError
				if !errors.As(rerr, &re) {
					t.Fatalf("%s: unstructured failure %T: %v", lv.name, rerr, rerr)
				}
			}
			results[i] = outcome{res.Output, res.Exit, rerr}
		}
		ref, got := results[0], results[1]
		if (ref.err == nil) != (got.err == nil) || ref.out != got.out || ref.exit != got.exit {
			t.Fatalf("sequential runs diverge:\n%s: exit=%d err=%v out=%q\n%s: exit=%d err=%v out=%q",
				optLevels[0].name, ref.exit, ref.err, ref.out,
				optLevels[1].name, got.exit, got.err, got.out)
		}
	})
}
