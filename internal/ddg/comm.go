package ddg

// CommOp identifies the merge operator of a commutative-update access
// class: reduction-shaped updates (sum/count accumulation, running
// min/max) whose cross-iteration order does not affect the final
// value, so each thread may apply them to a private copy and the
// copies merge after the loop (see internal/expand, comm.go).
type CommOp int

// Commutative merge operators. Only integer element types participate:
// floating-point accumulation is mathematically commutative but not
// associative in finite precision, so privatizing it would change the
// bit-exact sequential result.
const (
	CommNone CommOp = iota
	// CommAdd merges by addition; += and -= updates and ++/-- counters
	// (a -= accumulates a negative delta, which addition merges
	// correctly).
	CommAdd
	// CommMin merges by minimum (running-minimum updates).
	CommMin
	// CommMax merges by maximum (running-maximum updates).
	CommMax
)

func (op CommOp) String() string {
	switch op {
	case CommAdd:
		return "add"
	case CommMin:
		return "min"
	case CommMax:
		return "max"
	}
	return "none"
}
