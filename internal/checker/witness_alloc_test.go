package checker

import (
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/sim"
)

// crashHistory15 records one n=15, t=3 run in which processes 13, 14 and
// 15 crash and are each suspected by a different survivor, so the twelve
// survivors complete 36 detections.
func crashHistory15(t *testing.T) model.History {
	t.Helper()
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 15, Seed: 5, MinDelay: 1, MaxDelay: 10},
		Det: core.Config{N: 15, T: 3},
	})
	for i, victim := range []model.ProcID{13, 14, 15} {
		c.CrashAt(int64(1+i), victim)
		c.SuspectAt(int64(5+i), model.ProcID(1+i), victim)
	}
	res := c.Run()
	if !res.Quiescent() {
		t.Fatalf("run did not quiesce: %v", res.Stop)
	}
	return res.History
}

// witnessAllocBudget is the allocation budget of one WitnessProperty call
// on crashHistory15. Measured at 122 allocs/run on go1.24 linux/amd64:
// about three per detection (the heard set, its words, and the snapshot
// taken at failed_i(j)) plus the map and slice growth. The
// map-and-enumerate check this replaced made 28,955, because it built and
// sorted every one of the C(36,3) subfamilies. The budget leaves ~15%
// headroom; a per-subfamily or per-event allocation costs thousands here
// and trips it.
const witnessAllocBudget = 140

// TestWitnessPropertyAllocBudget gates the W check's allocations on a
// recorded crash history, where the Theorem 7 counting bound decides.
func TestWitnessPropertyAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	h := crashHistory15(t)
	if n := len(QuorumSets(h, core.TagSusp)); n != 36 {
		t.Fatalf("history has %d quorum sets, want 36", n)
	}
	mustHold(t, WitnessProperty(h, core.TagSusp, 3))
	got := testing.AllocsPerRun(20, func() { WitnessProperty(h, core.TagSusp, 3) })
	if got > witnessAllocBudget {
		t.Errorf("WitnessProperty allocates %.0f/run, over the budget of %d", got, witnessAllocBudget)
	}
}
