package main

import (
	"fmt"
	"sort"
	"strings"

	"gdsx"
	"gdsx/internal/alias"
	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/expand"
	"gdsx/internal/parser"
	"gdsx/internal/profile"
	"gdsx/internal/sema"
)

// built is one cold build: the native program, its guarded transform
// and the compiled expansion, which is what `gdsx pipeline` and a
// gdsxd cache miss produce.
type built struct {
	native *gdsx.Program
	tr     *gdsx.TransformResult
	exp    *gdsx.Program
	// accesses is the number of memory accesses the dependence
	// profiler observed, summed over the profiled loops.
	accesses int64
}

// build runs gdsx.Compile, gdsx.Transform{Guard: true} and gdsx.Compile
// of the expanded source. profileSrc, when set, is the training input
// the profiler runs instead of src. With a tracer it makes the same
// calls through buildTraced, so each phase is its own span.
func build(t *tracer, parent int, file, src, profileSrc string) (*built, error) {
	if t != nil {
		return buildTraced(t, parent, file, src, profileSrc)
	}
	native, err := gdsx.Compile(file, src)
	if err != nil {
		return nil, err
	}
	tr, err := gdsx.Transform(native, gdsx.TransformOptions{Guard: true, ProfileSource: profileSrc})
	if err != nil {
		return nil, err
	}
	exp, err := gdsx.Compile(file+" (expanded)", tr.Source)
	if err != nil {
		return nil, err
	}
	b := &built{native: native, tr: tr, exp: exp}
	for _, pr := range tr.Profiles {
		b.accesses += pr.Run.MemOps
	}
	return b, nil
}

// compileTraced is gdsx.Compile with the parser and checker as spans.
func compileTraced(t *tracer, parent int, file, src string) (*gdsx.Program, error) {
	id := t.begin("parser", parent, 0, 0)
	prog, err := parser.Parse(file, src)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("sema", parent, 0, 0)
	info, err := sema.Check(prog)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return &gdsx.Program{File: file, Source: src, AST: prog, Info: info}, nil
}

// buildTraced mirrors build with gdsx.Transform unrolled into the
// phases transform.go calls, in the same order and with the same
// options, so its source is byte-identical to Transform's (the traced
// run checks this).
func buildTraced(t *tracer, parent int, file, src, profileSrc string) (*built, error) {
	native, err := compileTraced(t, parent, file, src)
	if err != nil {
		return nil, err
	}
	// gdsx.Transform works on a fresh compilation of the source.
	work, err := compileTraced(t, parent, file, src)
	if err != nil {
		return nil, err
	}
	loops := work.ParallelLoops()
	if len(loops) == 0 {
		return nil, fmt.Errorf("%s has no parallel loops to transform", file)
	}
	eopts := expand.Optimized()
	eopts.GuardNotes = true
	copts := ddg.DefaultOptions()
	if eopts.Commutative && copts.CommSites == nil {
		copts.CommSites = sema.CommSites(work.Info)
	}
	profProg := work
	if profileSrc != "" {
		pp, err := compileTraced(t, parent, file+" (profile input)", profileSrc)
		if err != nil {
			return nil, err
		}
		if pp.AST.NumAccesses != work.AST.NumAccesses || pp.AST.NumLoops != work.AST.NumLoops ||
			pp.AST.NumAllocSites != work.AST.NumAllocSites {
			return nil, fmt.Errorf("%s: profile input is not structurally identical to the program", file)
		}
		profProg = pp
	}
	b := &built{native: native}
	tres := &gdsx.TransformResult{Profiles: map[int]*profile.Result{}, Classes: map[int]*ddg.Classification{}}
	var las []expand.LoopAnalysis
	for _, lid := range loops {
		id := t.begin("profile", parent, 0, 0)
		pr, err := profProg.ProfileLoop(lid, gdsx.RunOptions{})
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("profiling loop %d: %w", lid, err)
		}
		b.accesses += pr.Run.MemOps
		tres.Profiles[lid] = pr
		id = t.begin("ddg", parent, 0, 0)
		cls := ddg.Classify(pr.Graph, copts)
		t.end(id)
		tres.Classes[lid] = cls
		las = append(las, expand.LoopAnalysis{ID: lid, Graph: pr.Graph, Class: cls})
	}
	id := t.begin("alias", parent, 0, 0)
	an := alias.Analyze(work.AST, work.Info)
	t.end(id)
	id = t.begin("expand", parent, 0, 0)
	rep, err := expand.Expand(expand.Input{Prog: work.AST, Info: work.Info, Loops: las, Alias: an}, eopts)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("expanding: %w", err)
	}
	tres.Reports = append(tres.Reports, rep)
	id = t.begin("ast.print", parent, 0, 0)
	tres.Source = ast.Print(work.AST)
	t.end(id)
	// Transform recompiles its output to verify it; the build then
	// compiles it once more for execution.
	if _, err := compileTraced(t, parent, file+" (expanded)", tres.Source); err != nil {
		return nil, fmt.Errorf("transformed program does not recompile: %w", err)
	}
	exp, err := compileTraced(t, parent, file+" (expanded)", tres.Source)
	if err != nil {
		return nil, err
	}
	b.tr, b.exp = tres, exp
	return b, nil
}

// canonical returns src with the leading run of fat-pointer struct
// declarations sorted. expand emits those declarations in map
// iteration order, so two builds of one program may order them
// differently; every other byte of Transform's output is deterministic
// and compared as is.
func canonical(src string) string {
	decls := strings.Split(src, "\n\n")
	n := 0
	for n < len(decls) && strings.HasPrefix(decls[n], "struct __fat_") {
		n++
	}
	sort.Strings(decls[:n])
	return strings.Join(decls, "\n\n")
}
