package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// perPass sums the exact counts whose key ends in suffix: one value per
// program and mode, so the sum is what one pass over the pool does.
func (b *bench) perPass(suffix string) int64 {
	var n int64
	for k, v := range b.counts {
		if strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}

// layerMetrics sets the per-layer metrics of the traced run from the
// span ledger and the traced builds and runs, prints the per-layer
// table, and checks that a build's phases cover at least 90% of it
// (ROADMAP item 1); bench.count checks that split runs repeat the op
// counts of Program.Run. overhead is the workload's traced over
// untraced operation time, minus one.
func (b *bench) layerMetrics(overhead float64) {
	l := b.t.ledger()
	printLedger(os.Stdout, l)
	self := func(name string) time.Duration {
		if lt := l[name]; lt != nil {
			return lt.self
		}
		return 0
	}
	per := func(name string, n int) float64 { return ratio(ms(self(name)), float64(n)) }
	calls := func(name string) int {
		if lt := l[name]; lt != nil {
			return lt.count
		}
		return 0
	}

	builds := b.traced.builds
	for _, phase := range []string{"parser", "sema", "profile", "ddg", "alias", "expand", "ast.print"} {
		b.set(phase+".ms", per(phase, builds), "ms")
	}
	b.set("compile.unattributed_ms", per("build", builds), "ms")
	if lt := l["build"]; lt != nil && lt.total > 0 {
		share := float64(lt.self) / float64(lt.total)
		fmt.Printf("build phases cover %.1f%% of %d traced builds\n", 100*(1-share), lt.count)
		if share > 0.10 {
			b.problem("build phases cover only %.1f%% of the traced builds (want at least 90%%)", 100*(1-share))
		}
	}
	b.set("profile.accesses", float64(b.perPass("/profile.accesses")), "count")
	b.set("profile.ns_per_access", ratio(float64(self("profile")), float64(b.traced.accesses)), "ns")

	b.set("mem.new.ms", per("mem.new", calls("mem.new")), "ms")
	b.set("interp.compile.ms", per("interp.compile", calls("interp.compile")), "ms")
	b.set("interp.exec.ms", per("interp.exec", calls("interp.exec")), "ms")
	b.set("interp.exec_native.ms", per("interp.exec_native", calls("interp.exec_native")), "ms")
	b.set("interp.ops", float64(b.perPass("/ops")), "count")

	// Per-run aggregates over the traced runs. guard.ms compares the
	// guarded and plain expanded runs of the programs that have both.
	type progRuns struct {
		dur     [numModes][]float64
		memHigh [numModes]int64
	}
	perProg := map[string]*progRuns{}
	var execOps int64
	var commits, attempts int
	for _, s := range b.traced.runs {
		pr := perProg[s.e.p.name]
		if pr == nil {
			pr = &progRuns{}
			perProg[s.e.p.name] = pr
		}
		pr.dur[s.m] = append(pr.dur[s.m], ms(s.dur))
		pr.memHigh[s.m] = s.out.memHigh
		if s.m == guarded {
			commits += s.out.parallelRuns
			attempts += s.out.parallelRuns + s.out.rollbacks
		} else {
			execOps += s.out.ops
		}
	}
	var guardExtra, speedups, memRatios []float64
	for _, pr := range perProg {
		if len(pr.dur[expanded]) == 0 || len(pr.dur[native]) == 0 {
			continue
		}
		exp := median(pr.dur[expanded])
		speedups = append(speedups, median(pr.dur[native])/exp)
		if len(pr.dur[guarded]) > 0 {
			guardExtra = append(guardExtra, median(pr.dur[guarded])-exp)
		}
		if pr.memHigh[native] > 0 {
			memRatios = append(memRatios, float64(pr.memHigh[expanded])/float64(pr.memHigh[native]))
		}
	}
	b.set("guard.ms", mean(guardExtra), "ms")
	b.set("interp.ns_per_op", ratio(float64(self("interp.exec")+self("interp.exec_native")), float64(execOps)), "ns")
	b.set("guard.violations", float64(b.perPass("/violations")), "count")
	b.set("guard.rollbacks", float64(b.perPass("/rollbacks")), "count")
	b.set("guard.commit_ratio", ratio(float64(commits), float64(attempts)), "ratio")
	b.set("mem.snapshot_pages", float64(b.perPass("/snapshot_pages")), "count")
	b.set("mem.rollback_pages", float64(b.perPass("/rollback_pages")), "count")
	b.set("expand.mem_ratio", geomean(memRatios), "ratio")
	b.set("expand.speedup", geomean(speedups), "ratio")
	b.set("trace.overhead", overhead, "ratio")
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
