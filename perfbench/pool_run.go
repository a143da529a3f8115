package main

import (
	"fmt"
	"runtime"
	"time"

	"gdsx/internal/workloads"
)

// runThreads is the simulated thread count of expanded and guarded
// runs; native runs use one thread.
const runThreads = 2

// entry is one built pool program with the reference for its run input.
type entry struct {
	p     program
	b     *built
	scale workloads.Scale
	ref   string
}

// modes returns the run modes checked for e. The plain expanded run of
// an adversarial program is wrong by design on its exposing input, so
// only the native and guarded runs are made.
func (e *entry) modes() []mode {
	if e.p.adversarial && e.scale == workloads.ProfileScale {
		return []mode{native, guarded}
	}
	return []mode{native, expanded, guarded}
}

// buildInputs returns the source p is built from for running at scale
// s and the training input it is profiled on ("" for the source
// itself). At test scale the training input is built; at profile scale
// the run input is built and profiled on the test-scale training input,
// the paper's train/ref split.
func buildInputs(p program, s workloads.Scale) (src, prof string) {
	if s == workloads.ProfileScale {
		return p.src(s), p.train(workloads.Test)
	}
	return p.train(workloads.Test), ""
}

// buildOnce makes one cold build of p as one operation, traced when t
// is not nil, and returns it with its wall time. When want is not
// empty the build's expanded source must equal it.
func (b *bench) buildOnce(t *tracer, p program, s workloads.Scale, want string) (*built, time.Duration, error) {
	src, prof := buildInputs(p, s)
	runtime.GC() // the build starts from a collected heap, so no collection is owed mid-build
	root := t.begin("build", -1, t.op(), 0)
	t0 := time.Now()
	bl, err := build(t, root, p.name, src, prof)
	dur := time.Since(t0)
	t.end(root)
	if err == nil && want != "" && canonical(bl.tr.Source) != canonical(want) {
		err = fmt.Errorf("expanded source differs from the checked set-up build's")
	}
	b.opDone("build "+p.name, err)
	if err != nil {
		return nil, dur, err
	}
	b.count(p.name+"/"+scaleName(s)+"/profile.accesses", bl.accesses)
	if t != nil {
		b.traced.builds++
		b.traced.accesses += bl.accesses
	}
	return bl, dur, nil
}

// buildPool builds every program of ps for running at scale s. The
// first time the traced run builds the pool, each program is also
// built through gdsx.Transform, and the traced mirror's source must be
// byte-identical to it.
func (b *bench) buildPool(ps []program, s workloads.Scale) ([]*entry, error) {
	var es []*entry
	for _, p := range ps {
		bl, _, err := b.buildOnce(b.t, p, s, "")
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", p.name, err)
		}
		if b.t != nil && !b.mirrorChecked {
			// The untraced build goes through gdsx.Transform.
			if _, _, err := b.buildOnce(nil, p, s, bl.tr.Source); err != nil {
				b.problem("%s: the traced mirror does not reproduce gdsx.Transform: %v", p.name, err)
			}
		}
		es = append(es, &entry{p: p, b: bl, scale: s, ref: references[refKey(p.name, s)]})
	}
	b.mirrorChecked = true
	return es, nil
}

func scaleName(s workloads.Scale) string {
	if s == workloads.ProfileScale {
		return "profile"
	}
	return "test"
}

// sample is one timed run.
type sample struct {
	e   *entry
	m   mode
	dur time.Duration
	out runOut
}

// runOnce makes one run of e in mode m, traced when t is not nil,
// checks it, records its exact counts and returns the sample. nativeOut
// is the native output of the same pass, which expanded and guarded
// runs must equal (the paper's invariant), or "" when not yet known.
func (b *bench) runOnce(t *tracer, e *entry, m mode, nativeOut string) sample {
	threads := runThreads
	if m == native {
		threads = 1
	}
	runtime.GC() // the run starts from a collected heap, so no collection is owed mid-run
	root := t.begin("run."+modeNames[m], -1, t.op(), 0)
	t0 := time.Now()
	out, err := execute(t, root, e.b, m, threads)
	dur := time.Since(t0)
	t.end(root)
	smp := sample{e: e, m: m, dur: dur, out: out}
	what := fmt.Sprintf("%s %s", modeNames[m], e.p.name)
	if err == nil {
		err = checkRun(e, m, out, nativeOut)
	}
	b.opDone(what, err)
	if err != nil {
		return smp
	}
	key := e.p.name + "/" + scaleName(e.scale) + "/" + modeNames[m]
	b.count(key+"/ops", out.ops)
	if m == guarded {
		b.count(key+"/rollbacks", int64(out.rollbacks))
		b.count(key+"/violations", int64(out.violations))
		b.count(key+"/snapshot_pages", int64(out.snapshotPages))
		b.count(key+"/rollback_pages", int64(out.rollbackPages))
	}
	if t != nil {
		b.traced.runs = append(b.traced.runs, smp)
	}
	return smp
}

func checkRun(e *entry, m mode, out runOut, nativeOut string) error {
	if out.output != e.ref {
		return fmt.Errorf("output %q, reference %q", out.output, e.ref)
	}
	if m != native && nativeOut != "" && out.output != nativeOut {
		return fmt.Errorf("output %q differs from the native run's %q", out.output, nativeOut)
	}
	if m == guarded && e.p.adversarial && e.scale == workloads.ProfileScale && out.rollbacks == 0 {
		return fmt.Errorf("exposing input recorded no rollback, so recovery went unmeasured")
	}
	return nil
}

// runPass runs every entry in every mode, starting the rotation at
// offset.
func (b *bench) runPass(t *tracer, es []*entry, offset int) []sample {
	var out []sample
	for i := range es {
		e := es[(i+offset)%len(es)]
		nativeOut := ""
		for _, m := range e.modes() {
			s := b.runOnce(t, e, m, nativeOut)
			if m == native {
				nativeOut = s.out.output
			}
			out = append(out, s)
		}
	}
	return out
}
