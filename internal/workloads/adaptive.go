package workloads

// Workloads for the adaptive speculation ladder: guarded recovery of a
// region that is not idempotent, runtime re-expansion, and
// commutative-update privatization. Unlike AdversarialAll's programs
// these are not in the plain guard-evaluation set — their violation
// patterns are scheduler-placement-dependent (window) or one access
// per region execution (escape), so the tests that drive them pin the
// thread counts and the ladder configuration instead of asserting
// "violation at every thread count".

// AdaptiveAll returns the ladder-evaluation workloads.
func AdaptiveAll() []*Adversarial {
	return []*Adversarial{AdversarialEscape(), AdversarialWindow(), CommReduce()}
}

// AdversarialEscape exposes exactly one violating access per region
// execution, and only after the region has run clean. The kernel is
// the stencil's thread-private scratch pattern with slot-determined
// scratch writes (every writer of a slot stores the same value), but
// the region adds into out instead of overwriting it, so it is not
// idempotent: an execution that commits a wrong value keeps it in the
// output for good. main runs the kernel REPS times; after CLEAN clean
// executions the exposing input (S=1) redirects iteration VIOL's read
// to scratch slot 8 — a slot no iteration writes. Sequentially that
// reads the pre-loop init value; in the expanded program the read
// lands in the accessing thread's copy, whose slot 8 is zero-filled —
// a stale-copy-read. A guarded run with region recovery must catch,
// roll back and re-execute every violating execution; one that lets a
// single violating execution commit prints a different checksum from
// native. VIOL lies in thread nt/2's static share for the tested
// thread counts, so it runs off thread 0 — whose copy is the shared
// one and would read the right value — unless a thief takes it.
func AdversarialEscape() *Adversarial {
	return &Adversarial{
		Name:    "adversarial-escape",
		Profile: func(s Scale) string { return escapeSource(s, 0) },
		Expose:  func(s Scale) string { return escapeSource(s, 1) },
	}
}

func escapeSource(s Scale, stride int) string {
	n := pick(s, 96, 192, 4096)
	return sprintf(escapeTemplate, n, stride, n/2+1)
}

// Template parameters: %[1]d = iterations, %[2]d = exposing switch,
// %[3]d = the violating iteration.
const escapeTemplate = `
int N = %[1]d;
int STRIDE = %[2]d;
int VIOL = %[3]d;
int REPS = 10;
int CLEAN = 4;
int S = 0;

// Scratch: slots 0..7 are the thread-private pattern; slot 8 is never
// written inside the region (the exposing read's stale target).
long tmp[9];

void kernel(long *out) {
    int i;
    parallel for (i = 0; i < N; i++) {
        tmp[i %% 8] = ((long)(i %% 8) + 1) * 2654435761 + 99991;
        long v = tmp[i %% 8 + S * (i == VIOL) * (8 - i %% 8)];
        out[i] = out[i] + v %% 65536;
    }
}

int main() {
    long *out = (long*)calloc(N, 8);
    int j;
    for (j = 0; j < 9; j++) {
        tmp[j] = (long)(j + 1) * 1000003;
    }
    int r;
    for (r = 0; r < REPS; r++) {
        if (r >= CLEAN) {
            S = STRIDE;
        }
        kernel(out);
    }
    long s = 0;
    int i;
    for (i = 0; i < N; i++) {
        s = s * 31 + out[i];
    }
    print_str("adversarial-escape ");
    print_long(s);
    print_char('\n');
    free(out);
    return 0;
}
`

// AdversarialWindow confines its violations to one eight-iteration
// window, making them a function of the copy count — the scenario
// runtime re-expansion's copy-count move resolves. Iterations in
// [N/4, N/4+8) read the neighbouring scratch slot, whose sequential
// source is iteration i-7. Under SchedStatic with 4+ threads the
// window straddles a chunk boundary, so the source's write landed in
// another thread's copy: carried-flow and stale-copy-read violations
// at the same site pair, every region execution. With 2 threads the
// whole window and all its sources sit inside thread 0's chunk — the
// reads see their own copy's in-order writes, and the region is both
// clean and sequentially correct. An adaptive driver that halves the
// copy count after repeated same-pair strikes converts a
// demote-to-sequential region into a clean 2-thread parallel one.
func AdversarialWindow() *Adversarial {
	return &Adversarial{
		Name:    "adversarial-window",
		Profile: func(s Scale) string { return windowSource(s, 0) },
		Expose:  func(s Scale) string { return windowSource(s, 1) },
	}
}

func windowSource(s Scale, stride int) string {
	n := pick(s, 96, 192, 4096)
	return sprintf(windowTemplate, n, stride, n/4)
}

// Template parameters: %[1]d = iterations, %[2]d = exposing switch,
// %[3]d = window start.
const windowTemplate = `
int N = %[1]d;
int STRIDE = %[2]d;
int LO = %[3]d;
int REPS = 4;
int S = %[2]d;

// Heap scratch, touched only inside the parallel loop (never
// initialized outside it — every in-region read's source is an
// in-region write), so the re-expansion layout flip
// (bonded -> interleaved) is applicable to it.
long *tmp;

void kernel(long *out) {
    int i;
    parallel for (i = 0; i < N; i++) {
        tmp[i %% 8] = ((long)(i %% 8) + 1) * 2654435761 + 99991;
        long v = tmp[(i + S * (i >= LO) * (i < LO + 8)) %% 8];
        out[i] = v %% 65536;
    }
}

int main() {
    long *out = (long*)malloc(N * 8);
    tmp = (long*)malloc(64);
    int r;
    for (r = 0; r < REPS; r++) {
        kernel(out);
    }
    long s = 0;
    int i;
    for (i = 0; i < N; i++) {
        s = s * 31 + out[i];
    }
    print_str("adversarial-window ");
    print_long(s);
    print_char('\n');
    free(tmp);
    free(out);
    return 0;
}
`

// CommReduce is the commutative-update workload: a sum accumulator, a
// histogram and a running maximum, all updated with reduction-shaped
// operations inside a DOALL loop. The carried flow on all three is
// real — without commutative privatization a guarded run aborts (or
// rolls back) every region — but every update commutes, so the
// classifier marks the classes (Options.CommSites), and the expansion
// gives each thread private copies of the accumulators, merged after
// the loop: the loop runs clean, parallel, and beats sequential
// execution.
// Profile and Expose are the same program: the point is not a hidden
// dependence but a dependence expansion cannot remove. The kernel runs
// REPS times (the accumulators keep growing; the checksum covers the
// final state), so each guarded run enters the privatized region
// several times.
func CommReduce() *Adversarial {
	src := func(s Scale) string {
		n := pick(s, 128, 256, 8192)
		return sprintf(commTemplate, n)
	}
	return &Adversarial{Name: "comm-reduce", Profile: src, Expose: src}
}

// Template parameter: %[1]d = iterations.
const commTemplate = `
int N = %[1]d;
int REPS = 6;

long total;
long hist[8];
long hi;

// Each iteration mixes its element through ROUNDS of a Lehmer-style
// recurrence before folding it into the accumulators. The mixing runs
// on a loop-local (register-promoted, never logged), so the iteration
// carries real parallelizable work and the three commutative updates
// are its only shared-memory traffic — the shape of a reduction worth
// parallelizing, rather than one that is all accumulator.
void kernel(long *a) {
    int i;
    parallel for (i = 0; i < N; i++) {
        long x = a[i];
        int t;
        for (t = 0; t < 16; t++) {
            x = (x * 1103515245 + 12345) %% 2147483647;
        }
        total += x;
        hist[i %% 8] += 1;
        if (x > hi) {
            hi = x;
        }
    }
}

int main() {
    long *a = (long*)malloc(N * 8);
    int i;
    for (i = 0; i < N; i++) {
        a[i] = ((long)i * 2654435761 + 99991) %% 100000;
    }
    total = 17;
    hi = -1;
    for (i = 0; i < 8; i++) {
        hist[i] = 0;
    }
    int r;
    for (r = 0; r < REPS; r++) {
        kernel(a);
    }
    long s = total * 1000003 + hi;
    for (i = 0; i < 8; i++) {
        s = s * 31 + hist[i];
    }
    print_str("comm-reduce ");
    print_long(s);
    print_char('\n');
    free(a);
    return 0;
}
`
