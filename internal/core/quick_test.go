package core_test

import (
	"testing"
	"testing/quick"

	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/quorum"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
)

// Property: for ANY pattern of up to t suspicions (random suspectors,
// random targets, random times) and any seed, a quiescent §5-protocol run
// satisfies the full sFS specification, the t-subfamily witness property,
// and is isomorphic to some fail-stop run.
func TestQuickRandomScenariosSatisfySFS(t *testing.T) {
	const n, tFail = 10, 3
	prop := func(seed int64, raw [3]uint16) bool {
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 20},
			Det: core.Config{N: n, T: tFail},
		})
		targets := map[model.ProcID]bool{}
		for _, r := range raw {
			i := model.ProcID(int(r%uint16(n)) + 1)
			j := model.ProcID(int((r>>4)%uint16(n)) + 1)
			at := int64(r%97) + 1
			if i == j {
				continue
			}
			// Respect the paper's bound: at most t distinct failure targets.
			if !targets[j] && len(targets) >= tFail {
				continue
			}
			targets[j] = true
			c.SuspectAt(at, i, j)
		}
		res := c.Run()
		if !res.Quiescent() {
			// With <= t targets and n > t² this must not happen.
			t.Logf("seed %d: not quiescent: %+v", seed, res.Blocked)
			return false
		}
		if err := res.History.Validate(); err != nil {
			t.Logf("seed %d: invalid history: %v", seed, err)
			return false
		}
		ab := res.History.DropTags(core.TagSusp)
		if v, allOK := checker.AllHold(checker.SFS(ab)); !allOK {
			t.Logf("seed %d: %s", seed, v)
			return false
		}
		if !checker.WitnessProperty(res.History, core.TagSusp, tFail).Holds {
			t.Logf("seed %d: witness property violated", seed)
			return false
		}
		out, _, err := rewrite.Graph(ab)
		if err != nil {
			t.Logf("seed %d: not realizable: %v", seed, err)
			return false
		}
		return rewrite.Verify(ab, out) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: quorum snapshots recorded by detectors match the quorum sets
// reconstructed from the trace alone, for random single-target scenarios.
func TestQuickQuorumSnapshotsMatchTrace(t *testing.T) {
	prop := func(seed int64, who uint8) bool {
		n := 8
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 12},
			Det: core.Config{N: n, T: 2},
		})
		suspector := model.ProcID(int(who)%(n-1) + 2) // 2..8
		c.SuspectAt(5, suspector, 1)
		res := c.Run()
		fromTrace := checker.QuorumSets(res.History, core.TagSusp)
		fromDetectors := c.QuorumSets()
		if len(fromTrace) != len(fromDetectors) {
			return false
		}
		// Compare as multisets of sorted memberships.
		count := func(sets []quorum.Set) map[string]int {
			out := map[string]int{}
			for _, s := range sets {
				out[s.String()]++
			}
			return out
		}
		a, b := count(fromTrace), count(fromDetectors)
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the minimum quorum size is exactly what the detector defaults
// to, for all (n, t) with t >= 1, n >= 2.
func TestQuickDefaultQuorum(t *testing.T) {
	prop := func(nRaw, tRaw uint8) bool {
		n := int(nRaw%30) + 2
		tt := int(tRaw%5) + 1
		d := core.NewDetector(core.Config{N: n, T: tt}, nil, nil)
		return d.Config().QuorumSize == quorum.MinSize(n, tt)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
