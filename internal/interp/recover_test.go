package interp

import (
	"errors"
	"reflect"
	"testing"

	"gdsx/internal/obs"
)

// TestRecoveryLadder: every strike halves the region's width, and the
// strike that leaves it at one worker demotes it. A narrowing emits a
// narrow event (old and new width), the demotion a demote event.
func TestRecoveryLadder(t *testing.T) {
	o := &obs.Observer{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
	rc := newRecoveryState(8, o)
	fail := &regionFault{kind: FailViolation, err: errors.New("boom")}

	var widths []int
	for i := 0; i < 3; i++ {
		widths = append(widths, rc.admit(7))
		rc.noteFailure(7, fail, i+1, 100)
	}
	for i := 0; i < 2; i++ {
		widths = append(widths, rc.admit(7))
	}
	if want := []int{8, 4, 2, 0, 0}; !reflect.DeepEqual(widths, want) {
		t.Fatalf("admitted widths %v, want %v", widths, want)
	}
	s := rc.snapshot()[0]
	if s.Loop != 7 || s.Violations != 3 || s.Rollbacks != 3 ||
		s.RollbackPages != 6 || s.RollbackBytes != 300 || !s.Demoted {
		t.Fatalf("unexpected stats: %+v", s)
	}
	// One sequential re-execution per rollback, plus two demoted runs.
	if s.SeqRuns != 5 {
		t.Fatalf("SeqRuns = %d, want 5", s.SeqRuns)
	}
	if s.LastFailure != "boom" {
		t.Fatalf("LastFailure = %q", s.LastFailure)
	}
	var ladder []ladderEvent
	for _, ev := range o.Trace.Events() {
		if ev.Name == "narrow" || ev.Name == "demote" {
			ladder = append(ladder, ladderEvent{ev.Name, ev.V1, ev.V2})
		}
	}
	if want := []ladderEvent{{"narrow", 8, 4}, {"narrow", 4, 2}, {"demote", 3, 0}}; !reflect.DeepEqual(ladder, want) {
		t.Fatalf("ladder events %v, want %v", ladder, want)
	}
	if n, d := o.Counter("recover.narrowings").Value(), o.Counter("recover.demotions").Value(); n != 2 || d != 1 {
		t.Fatalf("narrowings %d, demotions %d; want 2 and 1", n, d)
	}

	// Strikes before a region goes sequential, per thread count.
	for nt, want := range map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 15: 3, 16: 4} {
		rc := newRecoveryState(nt, nil)
		strikes := 0
		for rc.admit(1) > 0 {
			rc.noteFailure(1, fail, 0, 0)
			strikes++
		}
		if strikes != want {
			t.Errorf("%d threads: demoted after %d strikes, want %d", nt, strikes, want)
		}
	}
}

// ladderEvent is a narrow or demote event's name and values.
type ladderEvent struct {
	Name   string
	V1, V2 int64
}

// TestRecoveryDemotedForeverWithoutCooldown: the ladder has no
// cooldown, so a demoted region never runs in parallel again.
func TestRecoveryDemotedForeverWithoutCooldown(t *testing.T) {
	rc := newRecoveryState(2, nil)
	rc.noteFailure(3, &regionFault{kind: FailTimeout}, 0, 0)
	for i := 0; i < 10; i++ {
		if rc.admit(3) != 0 {
			t.Fatal("a demoted region must stay demoted")
		}
	}
	s := rc.snapshot()[0]
	if s.Timeouts != 1 || !s.Demoted || s.SeqRuns != 11 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestRecoveryStrikesAccumulateAcrossSuccesses(t *testing.T) {
	rc := newRecoveryState(4, nil) // 4 -> 2 -> demoted
	fail := &regionFault{kind: FailFault, err: errors.New("oom")}
	rc.noteFailure(1, fail, 0, 0)
	for i := 0; i < 5; i++ {
		if w := rc.admit(1); w != 2 {
			t.Fatalf("width %d after one strike, want 2", w)
		}
		rc.noteSuccess(1, 1, 10)
	}
	rc.noteFailure(1, fail, 0, 0)
	if rc.admit(1) != 0 {
		t.Fatal("successes must not reset strikes: second failure demotes")
	}
	s := rc.snapshot()[0]
	if s.ParallelRuns != 5 || s.Faults != 2 || s.SnapshotPages != 5 || s.SnapshotBytes != 50 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestRecoverySnapshotSortedByLoop(t *testing.T) {
	rc := newRecoveryState(4, nil)
	rc.noteSuccess(9, 0, 0)
	rc.noteSuccess(2, 0, 0)
	rc.noteSuccess(5, 0, 0)
	st := rc.snapshot()
	if len(st) != 3 || st[0].Loop != 2 || st[1].Loop != 5 || st[2].Loop != 9 {
		t.Fatalf("stats not sorted by loop: %+v", st)
	}
}
