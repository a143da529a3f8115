package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/big"

	"gdsx/internal/workloads"
)

// program is one pool entry. For the Table-4 programs the profiling
// input is the program itself; for the adversarial programs it is the
// training constant, and the exposing constant is what runs.
type program struct {
	name        string
	adversarial bool
	src         func(workloads.Scale) string // the input that is built and run
	train       func(workloads.Scale) string // the dependence-profiling input
}

// pool returns the eight Table-4 programs followed by the three
// AdversarialAll programs.
func pool() []program {
	var ps []program
	for _, w := range workloads.All() {
		ps = append(ps, program{name: w.Name, src: w.Source, train: w.Source})
	}
	for _, a := range workloads.AdversarialAll() {
		ps = append(ps, program{name: a.Name, adversarial: true, src: a.Expose, train: a.Profile})
	}
	return ps
}

// Reference keys: "<name>/test" is the native output of the training
// input at test scale (what compile builds and serve runs);
// "<name>/profile" is the native output of the run input at profile
// scale (what the run workload executes).
func refKey(name string, s workloads.Scale) string {
	if s == workloads.ProfileScale {
		return name + "/profile"
	}
	return name + "/test"
}

// refSource returns the source whose output refKey(p.name, s) holds.
func (p program) refSource(s workloads.Scale) string {
	if s == workloads.ProfileScale {
		return p.src(s)
	}
	return p.train(s)
}

//go:embed testdata/references.json
var referencesJSON []byte

// references are the expected program outputs, checked in so that
// every run is compared against outputs the benchmark owns rather than
// against another run of the interpreter under test.
var references = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(referencesJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: testdata/references.json: %v", err))
	}
	return m
}()

// kernel is the serve workload's reduction kernel. The request's input
// preamble declares N, so each N is its own cache key.
const kernel = `
int main() {
	long *out = (long*)malloc(N * 8);
	int i;
	parallel for (i = 0; i < N; i++) {
		long acc = 0;
		int j;
		for (j = 0; j < 3000; j++) { acc = acc + (long)i * j; }
		out[i] = acc;
	}
	long s = 0;
	for (i = 0; i < N; i++) { s = s + out[i]; }
	print_long(s);
	print_char('\n');
	return 0;
}
`

// kernelInput is the preamble that sets the kernel's N.
func kernelInput(n int) string { return fmt.Sprintf("int N = %d;", n) }

// kernelRef is the kernel's output in closed form: the sum over i < N
// and j < 3000 of i*j is N(N-1)/2 * 4498500. It does not depend on the
// interpreter.
func kernelRef(n int) string {
	v := big.NewInt(int64(n))
	v.Mul(v, big.NewInt(int64(n-1)))
	v.Div(v, big.NewInt(2))
	v.Mul(v, big.NewInt(4498500))
	return v.String() + "\n"
}
