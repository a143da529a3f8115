package serve

import (
	"sync"
)

// Shed levels: the degradation ladder trades execution quality for
// admission capacity before the server refuses work.
const (
	// ShedNone: full quality — every request runs at its requested
	// thread count.
	ShedNone = 0
	// ShedSequential: demote new requests to single-thread execution —
	// no worker stacks, no region machinery, minimum memory and
	// scheduler footprint per request. The last step before 429s.
	ShedSequential = 1

	shedMax = ShedSequential
)

// The ladder's production thresholds: ShedSequential engages when the
// occupancy EWMA (weight ladderAlpha per sample) reaches ladderUp and
// releases when it falls below ladderDown.
const (
	ladderAlpha = 0.2
	ladderUp    = 0.75
	ladderDown  = 0.60
)

// Ladder tracks queue pressure as an exponentially-weighted moving
// average of admission-queue occupancy and maps it to a shed level
// with hysteresis: the level engages at ladderUp and releases only
// below ladderDown, so bursty arrivals don't make quality oscillate.
type Ladder struct {
	mu    sync.Mutex
	ewma  float64
	level int
}

// NewLadder returns a ladder at ShedNone with no pressure recorded.
func NewLadder() *Ladder { return &Ladder{} }

// Observe folds one occupancy sample (queued+running over capacity,
// taken at each admission) into the EWMA and returns the level the
// arriving request should run at.
func (l *Ladder) Observe(occupancy float64) int {
	if occupancy < 0 {
		occupancy = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ewma = ladderAlpha*occupancy + (1-ladderAlpha)*l.ewma
	switch {
	case l.level == ShedNone && l.ewma >= ladderUp:
		l.level = ShedSequential
	case l.level == ShedSequential && l.ewma < ladderDown:
		l.level = ShedNone
	}
	return l.level
}

// Level returns the current shed level without folding in a sample.
func (l *Ladder) Level() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.level
}

// Pressure returns the current occupancy EWMA.
func (l *Ladder) Pressure() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ewma
}
