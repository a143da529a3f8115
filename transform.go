package gdsx

import (
	"fmt"

	"gdsx/internal/alias"
	"gdsx/internal/ddg"
	"gdsx/internal/expand"
	"gdsx/internal/profile"
	"gdsx/internal/sema"
)

// TransformOptions configure the expansion pipeline.
type TransformOptions struct {
	// Loops restricts the transformation to these loop IDs; empty means
	// every parallel-annotated loop.
	Loops []int
	// Expand selects the expansion configuration. The zero value means
	// expand.Optimized().
	Expand *expand.Options
	// Classify tunes the Definition 5 classification.
	Classify *ddg.Options
	// ProfileOpts configure the profiling run (memory size etc.). Every
	// loop without a graph in Graphs is profiled in one run, in a pooled
	// arena, or in ProfileOpts.Memory when a caller that inspects or
	// sizes the memory sets it; the caller then resets it after the call.
	ProfileOpts RunOptions
	// ProfileSource, when non-empty, is an alternate version of the
	// program (typically a smaller input scale) used for the dependence
	// profiling runs, mirroring the paper's train/ref input split. It
	// must differ from the transformed source only in constants: the
	// loop and access-site numbering must match, which Transform
	// verifies.
	ProfileSource string
	// Graphs supplies dependence graphs directly (keyed by loop ID),
	// bypassing profiling for those loops. This is the paper's §2
	// "from the programmer" path: `gdsx profile -json` emits graphs,
	// the programmer verifies or edits them, and the pipeline consumes
	// them here. Supplying a wrong graph produces a wrong program —
	// exactly the contract the paper states.
	Graphs map[int]*ddg.Graph
	// Guard emits the guard markers (__expand_malloc/__expand_note)
	// that make the expanded program self-describing for the
	// guarded-execution monitor (see GuardedRunPrecompiled). It
	// overrides any Expand.GuardNotes setting.
	Guard bool
}

// TransformResult is the outcome of the full expansion pipeline.
type TransformResult struct {
	// Source is the transformed program, legal MiniC referencing
	// __tid/__nthreads.
	Source string
	// Expanded is the compilation of Source, ready to run at any thread
	// count. Runs never modify it, so concurrent runs may share it.
	// Hot-site profiles of its runs name its access sites; resolve them
	// against it (HotSiteFrames).
	Expanded *Program
	// Reports holds one expansion report per transformed loop.
	Reports []*expand.Report
	// Profiles holds the dependence profile per transformed loop.
	Profiles map[int]*profile.Result
	// Classes holds the access classification per transformed loop.
	Classes map[int]*ddg.Classification
}

// Transform runs the full pipeline of the paper's Figure 7 on a fresh
// compilation of the program's source: dependence profiling of each
// candidate loop, Definition 5 classification, points-to analysis, and
// data structure expansion. The result carries the transformed source
// and its compilation, Expanded, which runs at any thread count.
//
// The input Program is not modified; the pipeline works on a fresh
// parse of its source.
func Transform(p *Program, opts TransformOptions) (*TransformResult, error) {
	work, err := Compile(p.File, p.Source)
	if err != nil {
		return nil, err
	}
	loops := opts.Loops
	if len(loops) == 0 {
		loops = work.ParallelLoops()
	}
	if len(loops) == 0 {
		return nil, fmt.Errorf("gdsx: %s has no parallel loops to transform", p.File)
	}
	eopts := expand.Optimized()
	if opts.Expand != nil {
		eopts = *opts.Expand
	}
	if opts.Guard {
		eopts.GuardNotes = true
	}
	copts := ddg.DefaultOptions()
	if opts.Classify != nil {
		copts = *opts.Classify
	}
	if eopts.Commutative && copts.CommSites == nil {
		copts.CommSites = sema.CommSites(work.Info)
	}

	res := &TransformResult{
		Profiles: map[int]*profile.Result{},
		Classes:  map[int]*ddg.Classification{},
	}

	// Profile every candidate loop first (profiling does not mutate the
	// AST), then analyze aliases once, then expand all loops in one
	// pass (structures shared between loops must see every loop's
	// classification at once).
	profProg := work
	if opts.ProfileSource != "" {
		pp, err := Compile(p.File+" (profile input)", opts.ProfileSource)
		if err != nil {
			return nil, fmt.Errorf("gdsx: compiling profile input: %w", err)
		}
		if pp.AST.NumAccesses != work.AST.NumAccesses || pp.AST.NumLoops != work.AST.NumLoops ||
			pp.AST.NumAllocSites != work.AST.NumAllocSites {
			return nil, fmt.Errorf("gdsx: profile input is not structurally identical to the program "+
				"(accesses %d vs %d, loops %d vs %d)",
				pp.AST.NumAccesses, work.AST.NumAccesses, pp.AST.NumLoops, work.AST.NumLoops)
		}
		profProg = pp
	}

	var profiled []int
	for _, id := range loops {
		if _, ok := opts.Graphs[id]; !ok {
			profiled = append(profiled, id)
		}
	}
	if len(profiled) > 0 {
		if res.Profiles, err = profProg.profileLoops(profiled, opts.ProfileOpts); err != nil {
			return nil, fmt.Errorf("gdsx: profiling loops %v: %w", profiled, err)
		}
	}
	var las []expand.LoopAnalysis
	for _, id := range loops {
		g := opts.Graphs[id]
		if pr, ok := res.Profiles[id]; ok {
			g = pr.Graph
		}
		res.Classes[id] = ddg.Classify(g, copts)
		las = append(las, expand.LoopAnalysis{ID: id, Graph: g, Class: res.Classes[id]})
	}
	an := alias.Analyze(work.AST, work.Info)

	rep, err := expand.Expand(expand.Input{
		Prog:  work.AST,
		Info:  work.Info,
		Loops: las,
		Alias: an,
	}, eopts)
	if err != nil {
		return nil, fmt.Errorf("gdsx: expanding: %w", err)
	}
	res.Reports = append(res.Reports, rep)

	res.Source = work.Print()
	// Verify the transformed program is still legal MiniC.
	if res.Expanded, err = Compile(p.File+" (expanded)", res.Source); err != nil {
		return nil, fmt.Errorf("gdsx: transformed program does not recompile: %w\n--- transformed source ---\n%s", err, res.Source)
	}
	return res, nil
}
