package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pipelineSrc is a program with one DOALL loop whose iterations store
// %s into out[i], followed by an order-sensitive checksum.
const pipelineSrc = `
int out[64];
int main() {
    int i;
    parallel for (i = 0; i < 64; i++) {
        out[i] = %s;
    }
    long s = 0;
    for (i = 0; i < 64; i++) {
        s = s * 3 + out[i];
    }
    print_long(s);
    return 0;
}
`

func writeSource(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.c")
	if err := os.WriteFile(path, []byte(strings.Replace(pipelineSrc, "%s", body, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPipelineMismatchFails: a pipeline whose expanded output differs
// from the native run must return an error, so the command exits
// non-zero; one whose output matches returns nil. Storing __tid makes
// the 2-thread output differ from the sequential one, in which every
// iteration runs as thread 0.
func TestPipelineMismatchFails(t *testing.T) {
	err := pipelineCmd([]string{"-threads", "2", writeSource(t, "__tid")})
	if err == nil || !strings.Contains(err.Error(), "differs from native") {
		t.Fatalf("mismatching pipeline returned %v, want a differs-from-native error", err)
	}
	if err := pipelineCmd([]string{"-threads", "2", writeSource(t, "i * 7")}); err != nil {
		t.Fatalf("matching pipeline returned %v", err)
	}
}

// chainSrc is a DOACROSS loop that updates a carried value and then
// reads it again in a second statement.
const chainSrc = `
int a[2000];
int out[2000];
int main() {
    int i;
    int chain = 0;
    long sum = 0;
    for (i = 0; i < 2000; i++) {
        a[i] = i * 7 + 3;
    }
    parallel doacross for (i = 0; i < 2000; i++) {
        chain = chain * 31 + a[i];
        out[i] = chain;
    }
    for (i = 0; i < 2000; i++) {
        sum = sum + out[i] * (i + 1);
    }
    print_long(sum);
    return 0;
}
`

// TestPipelineOrderedReadMatches runs the guarded pipeline on chainSrc:
// the ordered section must cover the second read, or an iteration can
// read the next one's value, and some of the runs end MISMATCH.
func TestPipelineOrderedReadMatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.c")
	if err := os.WriteFile(path, []byte(chainSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		if err := pipelineCmd([]string{"-guard", "-threads", "4", path}); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}
