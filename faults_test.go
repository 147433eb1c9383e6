package failstop_test

import (
	"strings"
	"testing"
	"time"

	"failstop"
	"failstop/internal/model"
	"failstop/internal/netadv"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts failstop.Options
		want string // substring of the error; "" means valid
	}{
		{"too few processes", failstop.Options{N: 1}, "at least 2"},
		{"zero processes", failstop.Options{N: 0}, "at least 2"},
		{"negative t", failstop.Options{N: 5, T: -1}, "cannot be negative"},
		{"heartbeats without horizon", failstop.Options{N: 5, HeartbeatEvery: 10}, "MaxTime"},
		{"bad fault plan", failstop.Options{N: 5, Faults: &failstop.FaultPlan{
			Rules: []failstop.FaultRule{{Drop: 2}},
		}}, "outside [0,1]"},
		{"plan names unknown process", failstop.Options{N: 5, Faults: &failstop.FaultPlan{
			Rules: []failstop.FaultRule{{Cut: true, Links: failstop.LinkSet{
				Groups: [][]failstop.ProcID{{1, 9}},
			}}},
		}}, "outside 1..5"},
		{"valid minimal", failstop.Options{N: 2}, ""},
		{"valid heartbeats", failstop.Options{N: 5, HeartbeatEvery: 10, MaxTime: 1000}, ""},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.opts.Validate()
			if tt.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.want)
			}
		})
	}
}

func TestNewClusterPanicsOnInvalidOptions(t *testing.T) {
	for name, opts := range map[string]failstop.Options{
		"n too small":        {N: 1},
		"heartbeats forever": {N: 5, HeartbeatEvery: 7},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NewCluster accepted invalid options")
				}
			}()
			failstop.NewCluster(opts)
		})
	}
}

func TestNewLiveClusterPanicsOnTooFewProcesses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLiveCluster accepted N=1")
		}
	}()
	failstop.NewLiveCluster(failstop.LiveOptions{N: 1})
}

func TestBuiltinFaultPlans(t *testing.T) {
	names := failstop.FaultPlanNames()
	if len(names) != 10 {
		t.Fatalf("FaultPlanNames() = %v", names)
	}
	for _, name := range names {
		plan, err := failstop.BuiltinFaultPlan(name, 10, 3)
		if err != nil {
			t.Fatalf("BuiltinFaultPlan(%s): %v", name, err)
		}
		if plan.Name != name || plan.Empty() {
			t.Errorf("plan %s: name=%q rules=%d", name, plan.Name, len(plan.Rules))
		}
	}
	if _, err := failstop.BuiltinFaultPlan("nope", 5, 2); err == nil {
		t.Error("unknown plan accepted")
	}
}

// splitBrainNow is a partition active from tick 0: majority {1,2,3} vs
// minority {4,5}. Immediate activation keeps sim and live semantics
// comparable without racing injection timing against the cut.
func splitBrainNow() *failstop.FaultPlan {
	return &failstop.FaultPlan{
		Name: "split-brain-now",
		Rules: []failstop.FaultRule{{
			Cut: true,
			Links: failstop.LinkSet{Groups: [][]failstop.ProcID{
				{1, 2, 3}, {4, 5},
			}},
		}},
	}
}

// checkSplitBrainSemantics asserts the plan semantics both backends must
// agree on for n=5, t=2 (minimum quorum 3): the majority-side detection of
// a minority member completes, the minority-side detection starves, and no
// message ever crosses the partition.
func checkSplitBrainSemantics(t *testing.T, backend string, h failstop.History, dropped int) {
	t.Helper()
	if h.FailedIndex(1, 4) < 0 {
		t.Errorf("%s: majority-side detection failed_1(4) never completed", backend)
	}
	if idx := h.FailedIndex(4, 1); idx >= 0 {
		t.Errorf("%s: minority-side detection failed_4(1) completed at %d despite quorum 3 > half size 2", backend, idx)
	}
	minority := map[failstop.ProcID]bool{4: true, 5: true}
	for _, e := range h {
		if e.Kind == model.KindRecv && minority[e.Proc] != minority[e.Peer] {
			t.Errorf("%s: message crossed the partition: %s", backend, e)
		}
	}
	if dropped == 0 {
		t.Errorf("%s: no messages dropped despite cross-partition broadcasts", backend)
	}
}

// TestFaultPlanCrossBackend is the acceptance criterion: the deterministic
// simulator and the live goroutine runtime agree on fault-plan semantics.
func TestFaultPlanCrossBackend(t *testing.T) {
	// Simulated backend.
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 3, Faults: splitBrainNow(),
	})
	c.SuspectAt(20, 1, 4)
	c.SuspectAt(25, 4, 1)
	rep := c.Run()
	checkSplitBrainSemantics(t, "sim", rep.History, rep.Dropped)

	// Live backend, same plan.
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 5, T: 2, Seed: 3, Faults: splitBrainNow(),
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	lc.Suspect(1, 4)
	lc.Suspect(4, 1)
	deadline := time.Now().Add(2 * time.Second)
	for lc.History().FailedIndex(1, 4) < 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	dropped := int(lc.Metrics().Value("net_dropped_total"))
	checkSplitBrainSemantics(t, "live", lc.History(), dropped)
}

// TestFaultPlanDeterministicRuns: identical options including a
// probabilistic plan reproduce byte-identical histories.
func TestFaultPlanDeterministicRuns(t *testing.T) {
	flaky, err := failstop.BuiltinFaultPlan("flaky-quorum", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() failstop.Report {
		c := failstop.NewCluster(failstop.Options{N: 10, T: 3, Seed: 11, Faults: &flaky})
		c.SuspectAt(10, 2, 1)
		return c.Run()
	}
	a, b := run(), run()
	if !a.History.IsomorphicTo(b.History) || len(a.History) != len(b.History) {
		t.Error("identical seeds produced different histories under flaky-quorum")
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated {
		t.Errorf("fault counters diverged: (%d,%d) vs (%d,%d)", a.Dropped, a.Duplicated, b.Dropped, b.Duplicated)
	}
	if a.Dropped == 0 {
		t.Error("flaky-quorum dropped nothing")
	}
}

// healingPlan instantiates the healing-partition built-in for n=5, t=2:
// halves {1,2,3} | {4,5}, lossy cut from tick 10, heal at tick 200.
func healingPlan(t *testing.T) *failstop.FaultPlan {
	t.Helper()
	plan, err := failstop.BuiltinFaultPlan("healing-partition", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &plan
}

// TestReliableHealingPartitionCrossBackend is the PR's acceptance
// criterion: under the lossy healing partition, a crash scheduled before
// the heal — suspected from the minority side, which cannot assemble the
// quorum of 3 on its own — is eventually detected by every correct process
// on both backends once the reliable-delivery layer retransmits the
// broadcast across the heal. The same scenario with the layer disabled
// starves (asserted deterministically on the simulated backend).
func TestReliableHealingPartitionCrossBackend(t *testing.T) {
	// Simulated backend, layer disabled: the once-only broadcast from 5 is
	// dropped at the cut, so no correct process ever detects the crash.
	bare := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 7, MaxTime: 3000, Faults: healingPlan(t),
	})
	bare.CrashAt(15, 1)
	bare.SuspectAt(20, 5, 1)
	bareRep := bare.Run()
	for p := failstop.ProcID(2); p <= 5; p++ {
		if idx := bareRep.History.FailedIndex(p, 1); idx >= 0 {
			t.Errorf("sim without reliable delivery: failed_%d(1) completed at %d despite the lossy cut", p, idx)
		}
	}
	if bareRep.Retransmits != 0 || bareRep.AckedDuplicates != 0 {
		t.Errorf("disabled layer reported work: retransmits=%d ackedDups=%d",
			bareRep.Retransmits, bareRep.AckedDuplicates)
	}

	// Simulated backend, layer enabled: retransmission carries the
	// suspicion across the heal and every correct process detects.
	rel := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 7, MaxTime: 3000, Faults: healingPlan(t),
		Reliable: failstop.ReliableOptions{Enabled: true},
	})
	rel.CrashAt(15, 1)
	rel.SuspectAt(20, 5, 1)
	relRep := rel.Run()
	for p := failstop.ProcID(2); p <= 5; p++ {
		if relRep.History.FailedIndex(p, 1) < 0 {
			t.Errorf("sim with reliable delivery: failed_%d(1) never completed after the heal", p)
		}
	}
	if relRep.Retransmits == 0 {
		t.Error("sim with reliable delivery recovered the detection without retransmitting")
	}

	// Live backend, layer enabled, same plan: ticks are 1ms, so the cut is
	// active [10ms, 200ms) — inject well inside it and wait for every
	// correct process to detect.
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 5, T: 2, Seed: 7, Faults: healingPlan(t),
		Reliable: failstop.ReliableOptions{Enabled: true},
		MinDelay: 1 * time.Millisecond, MaxDelay: 3 * time.Millisecond,
		Tick: 1 * time.Millisecond,
	})
	lc.Start()
	time.Sleep(25 * time.Millisecond) // inside the cut window
	lc.Crash(1)
	lc.Suspect(5, 1)
	deadline := time.Now().Add(5 * time.Second)
	allDetected := func(h failstop.History) bool {
		for p := failstop.ProcID(2); p <= 5; p++ {
			if h.FailedIndex(p, 1) < 0 {
				return false
			}
		}
		return true
	}
	for !allDetected(lc.History()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	lc.Stop()
	h := lc.History()
	for p := failstop.ProcID(2); p <= 5; p++ {
		if h.FailedIndex(p, 1) < 0 {
			t.Errorf("live with reliable delivery: failed_%d(1) never completed", p)
		}
	}
	if lc.Metrics().Value("reliable_retransmits_total") == 0 {
		t.Error("live backend detected across the heal without retransmitting")
	}
}

// checkOneWayCutSemantics asserts what both backends must agree on under
// the one-way-cut plan for n=5, t=2: process 5's outbound links are cut
// from tick 10 while inbound delivery keeps working, so a majority-side
// suspicion of 5 completes everywhere — with no message from 5 ever
// delivered, even though 5 keeps receiving the protocol's broadcasts.
func checkOneWayCutSemantics(t *testing.T, backend string, h failstop.History) {
	t.Helper()
	for p := failstop.ProcID(1); p <= 4; p++ {
		if h.FailedIndex(p, 5) < 0 {
			t.Errorf("%s: failed_%d(5) never completed despite a full quorum among 1..4", backend, p)
		}
	}
	gotInbound := false
	for _, e := range h {
		if e.Kind != model.KindRecv {
			continue
		}
		if e.Peer == 5 && e.Proc != 5 {
			t.Errorf("%s: message from the mute process delivered: %s", backend, e)
		}
		if e.Proc == 5 && e.Peer != 5 {
			gotInbound = true
		}
	}
	if !gotInbound {
		t.Errorf("%s: mute process received nothing; the cut must be one-directional", backend)
	}
}

// TestOneWayCutCrossBackend: the simulator and the live runtime agree on
// the asymmetric (directed Pairs) cut semantics.
func TestOneWayCutCrossBackend(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("one-way-cut", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := failstop.NewCluster(failstop.Options{N: 5, T: 2, Seed: 4, Faults: &plan})
	c.SuspectAt(20, 1, 5)
	rep := c.Run()
	checkOneWayCutSemantics(t, "sim", rep.History)

	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 5, T: 2, Seed: 4, Faults: &plan,
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	time.Sleep(5 * time.Millisecond) // past tick 10: the cut is standing
	lc.Suspect(1, 5)
	// The semantics check needs failed_p(5) for every p in 1..4, and the
	// suspicion reaches 2..4 a beat after 1's own detection completes — so
	// wait for all four, not just the suspecting process.
	allFailed := func() bool {
		h := lc.History()
		for p := failstop.ProcID(1); p <= 4; p++ {
			if h.FailedIndex(p, 5) < 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(2 * time.Second)
	for !allFailed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	checkOneWayCutSemantics(t, "live", lc.History())
}

// movingIsolatedAt returns which process the moving-partition builtin (for
// n processes) isolates at tick ts, or 0 before the rotation starts.
func movingIsolatedAt(n int, ts int64) failstop.ProcID {
	if ts < 10 {
		return 0
	}
	return failstop.ProcID((ts-10)/netadv.MovingPartitionStride%int64(n) + 1)
}

// checkMovingPartitionInvariant asserts what both backends must agree on
// under moving-partition: no message sent while one of its endpoints was
// isolated is ever delivered. Send times within margin ticks of a window
// boundary are skipped — the live runtime stamps the send event and
// consults the plan on separate clock reads, so boundary ticks are fuzzy
// there (the simulator passes with margin 0).
func checkMovingPartitionInvariant(t *testing.T, backend string, n int, h failstop.History, margin int64) {
	t.Helper()
	sendTime := make(map[model.MsgID]int64)
	sender := make(map[model.MsgID]failstop.ProcID)
	for _, e := range h {
		if e.Kind == model.KindSend {
			sendTime[e.Msg] = e.Time
			sender[e.Msg] = e.Proc
		}
	}
	checked := 0
	for _, e := range h {
		if e.Kind != model.KindRecv {
			continue
		}
		ts, ok := sendTime[e.Msg]
		if !ok {
			t.Errorf("%s: receive of unknown message %d", backend, e.Msg)
			continue
		}
		iso := movingIsolatedAt(n, ts)
		if iso == 0 {
			continue
		}
		if pos := (ts - 10) % netadv.MovingPartitionStride; pos < margin || pos >= netadv.MovingPartitionStride-margin {
			continue // too close to a rotation boundary to attribute
		}
		checked++
		if sender[e.Msg] == iso || e.Proc == iso {
			t.Errorf("%s: message sent at %d delivered although process %d was isolated: %s", backend, ts, iso, e)
		}
	}
	if checked == 0 {
		t.Errorf("%s: no deliveries with attributable send times; the invariant was never exercised", backend)
	}
}

// TestMovingPartitionCrossBackend: the rotating cut behaves identically on
// the deterministic simulator and the live runtime. On the simulator the
// outcome is exact: a suspicion raised while process 4 is isolated
// assembles its quorum among the three connected live processes, process 4
// starves, and nothing ever crosses an active cut. The live runtime must
// honor the same rotation (invariant + eventual detection), with retries
// because a wall-clock injection may land in an unlucky window.
func TestMovingPartitionCrossBackend(t *testing.T) {
	const n, tt = 5, 2
	plan, err := failstop.BuiltinFaultPlan("moving-partition", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	const stride = netadv.MovingPartitionStride

	// Simulated backend. Windows: 1 isolated [10,70), 2 [70,130),
	// 3 [130,190), 4 [190,250), 5 [250,310), then wrap. Crash 1 inside its
	// own window; suspect it from 2 at tick 200, while 4 is dark: the
	// broadcast and its echoes stay inside 4's window, so 2, 3, and 5
	// assemble the quorum of 3 and 4 starves.
	c := failstop.NewCluster(failstop.Options{
		N: n, T: tt, Seed: 5, MaxTime: 4000, Faults: &plan,
	})
	c.CrashAt(15, 1)
	c.SuspectAt(10+3*stride+10, 2, 1)
	rep := c.Run()
	for _, p := range []failstop.ProcID{2, 3, 5} {
		if rep.History.FailedIndex(p, 1) < 0 {
			t.Errorf("sim: failed_%d(1) never completed despite a quorum of connected processes", p)
		}
	}
	if idx := rep.History.FailedIndex(4, 1); idx >= 0 {
		t.Errorf("sim: failed_4(1) completed at %d although every voice was sent into 4's isolation window", idx)
	}
	if rep.Dropped == 0 {
		t.Error("sim: rotating cut dropped nothing")
	}
	checkMovingPartitionInvariant(t, "sim", n, rep.History, 0)

	// Live backend, same plan: 1ms ticks, so each process is dark for one
	// 60ms stride. Suspicions are re-raised from rotating suspecters until
	// one broadcast lands in a window that lets a quorum assemble — under a
	// moving (never permanent) partition detection must eventually succeed.
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: n, T: tt, Seed: 5, Faults: &plan,
		MinDelay: 1 * time.Millisecond, MaxDelay: 3 * time.Millisecond,
		Tick: 1 * time.Millisecond,
	})
	lc.Start()
	time.Sleep(15 * time.Millisecond)
	lc.Crash(1)
	detected := func(h failstop.History) int {
		got := 0
		for p := failstop.ProcID(2); p <= n; p++ {
			if h.FailedIndex(p, 1) >= 0 {
				got++
			}
		}
		return got
	}
	deadline := time.Now().Add(8 * time.Second)
	suspecters := []failstop.ProcID{2, 3, 5, 4}
	for i := 0; detected(lc.History()) < 3 && time.Now().Before(deadline); i++ {
		lc.Suspect(suspecters[i%len(suspecters)], 1)
		pause := time.Now().Add(600 * time.Millisecond)
		for detected(lc.History()) < 3 && time.Now().Before(pause) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	lc.Stop()
	h := lc.History()
	if got := detected(h); got < 3 {
		t.Errorf("live: only %d processes detected the crash under the moving partition, want >= 3", got)
	}
	checkMovingPartitionInvariant(t, "live", n, h, 8)
}

// recvGaps collects the delivery-time gaps between consecutive receives on
// the directed link from -> to.
func recvGaps(h failstop.History, from, to failstop.ProcID) []int64 {
	var times []int64
	for _, e := range h {
		if e.Kind == model.KindRecv && e.Proc == to && e.Peer == from {
			times = append(times, e.Time)
		}
	}
	gaps := make([]int64, 0, len(times))
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	return gaps
}

// TestQueueDelayCrossBackend: bandwidth shaping spreads a burst identically
// on both backends. Process 1 raises three suspicions back to back, so its
// link to process 2 carries three SUSP broadcasts at once; with QueueDelay
// the copies must arrive at least one serialization slot apart — exactly
// one on the deterministic simulator, approximately on real clocks.
func TestQueueDelayCrossBackend(t *testing.T) {
	const delay = 40
	shaped := &failstop.FaultPlan{
		Name:  "shaped",
		Rules: []failstop.FaultRule{{QueueDelay: delay}},
	}

	// Simulated backend: base delay pinned to 1 tick, so the three SUSP
	// messages on link 1->2 arrive spaced exactly QueueDelay apart.
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 9, MinDelay: 1, MaxDelay: 1, MaxTime: 4000,
		Faults: shaped,
	})
	c.SuspectAt(20, 1, 3)
	c.SuspectAt(20, 1, 4)
	c.SuspectAt(20, 1, 5)
	rep := c.Run()
	gaps := recvGaps(rep.History, 1, 2)
	if len(gaps) != 2 {
		t.Fatalf("sim: link 1->2 delivered %d messages, want 3", len(gaps)+1)
	}
	for i, g := range gaps {
		if g != delay {
			t.Errorf("sim: gap %d on link 1->2 = %d ticks, want exactly %d", i, g, delay)
		}
	}

	// Live backend, same plan: 1ms ticks. Scheduling jitter loosens the
	// bound but the serialization slots must still be visible.
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 5, T: 2, Seed: 9, Faults: shaped,
		MinDelay: 1 * time.Millisecond, MaxDelay: 1 * time.Millisecond,
		Tick: 1 * time.Millisecond,
	})
	lc.Start()
	lc.Suspect(1, 3)
	lc.Suspect(1, 4)
	lc.Suspect(1, 5)
	deadline := time.Now().Add(5 * time.Second)
	for len(recvGaps(lc.History(), 1, 2)) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	lc.Stop()
	gaps = recvGaps(lc.History(), 1, 2)
	if len(gaps) < 2 {
		t.Fatalf("live: link 1->2 delivered %d messages, want 3", len(gaps)+1)
	}
	for i, g := range gaps {
		if g < delay-8 {
			t.Errorf("live: gap %d on link 1->2 = %d ticks, want >= %d (shaping lost)", i, g, delay-8)
		}
	}
}

// checkByzantineSemantics asserts what both backends must agree on for the
// byzantine-minority plan at n=5, t=2 with the interposer enabled: the
// plan's victims (the corruptor 5 and the equivocator 4) are convicted by
// the honest majority, and — via the §5 masking path — demoted to crashed
// processes that some honest process completes a detection of. No honest
// process is ever convicted, so no honest detection of 1..3 may complete.
func checkByzantineSemantics(t *testing.T, backend string, h failstop.History, detected int) {
	t.Helper()
	if detected == 0 {
		t.Errorf("%s: interposer enabled under Byzantine traffic but convicted nothing", backend)
	}
	for _, victim := range []failstop.ProcID{4, 5} {
		found := false
		for _, honest := range []failstop.ProcID{1, 2, 3} {
			if h.FailedIndex(honest, victim) >= 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: Byzantine victim %d was never demoted to a detected crash", backend, victim)
		}
	}
	for _, honest := range []failstop.ProcID{1, 2, 3} {
		for _, accuser := range []failstop.ProcID{1, 2, 3, 4, 5} {
			if accuser != honest && h.FailedIndex(accuser, honest) >= 0 {
				t.Errorf("%s: honest process %d was detected as failed by %d", backend, honest, accuser)
			}
		}
	}
}

// TestByzantineCrossBackend: the deterministic simulator and the live
// goroutine runtime agree on Byzantine fate semantics. The victims' own
// SUSP broadcasts are what the plan corrupts and equivocates; with the
// validation interposer on, both backends convict exactly the victims and
// crash them out of the membership.
func TestByzantineCrossBackend(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("byzantine-minority", 5, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Simulated backend.
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 3, MaxTime: 5000, Faults: &plan,
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	})
	c.SuspectAt(20, 4, 1)
	c.SuspectAt(24, 5, 2)
	rep := c.Run()
	checkByzantineSemantics(t, "sim", rep.History, rep.ByzDetected)
	if rep.Corrupted == 0 {
		t.Error("sim: plan corrupted nothing")
	}
	if rep.Equivocated == 0 {
		t.Error("sim: plan equivocated nothing")
	}

	// Live backend, same plan and interposer.
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 5, T: 2, Seed: 3, Faults: &plan,
		Byzantine: failstop.ByzantineOptions{Enabled: true},
		MinDelay:  50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	// The plan's rules activate at tick 10 (1ms of 100µs ticks). Let the
	// window open before injecting, as SuspectAt(20, ...) does on the
	// simulated backend — an earlier SUSP would cross the wire unmutated.
	time.Sleep(20 * time.Millisecond)
	lc.Suspect(4, 1)
	lc.Suspect(5, 2)
	deadline := time.Now().Add(5 * time.Second)
	demoted := func() bool {
		h := lc.History()
		for _, victim := range []failstop.ProcID{4, 5} {
			found := false
			for _, honest := range []failstop.ProcID{1, 2, 3} {
				if h.FailedIndex(honest, victim) >= 0 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for !demoted() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	detected := int(lc.Metrics().Value("byz_detected_total"))
	checkByzantineSemantics(t, "live", lc.History(), detected)
}
