package openloop

import "pmnet/internal/workload"

// Mix is the action definition the driver plays; the applications are
// defined once, in internal/workload, for both loops.
type Mix = workload.Mix

// NewTwitterMix is workload.NewTwitterMix in the positional form the
// benchmark's own wiring calls.
func NewTwitterMix(users int, updateRatio float64, postLen int) *workload.TwitterMix {
	return workload.NewTwitterMix(workload.TwitterConfig{Users: users, UpdateRatio: updateRatio, PostLen: postLen})
}
