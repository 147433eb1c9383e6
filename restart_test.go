package failstop_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"failstop"
	"failstop/internal/model"
)

// stormFate reduces a run to its backend-independent restart outcome: for
// each process, whether it ever plan-crashed and whether it ever restarted.
type stormFate struct {
	crashed   map[failstop.ProcID]bool
	restarted map[failstop.ProcID]bool
}

func historyFate(h failstop.History) stormFate {
	f := stormFate{
		crashed:   make(map[failstop.ProcID]bool),
		restarted: make(map[failstop.ProcID]bool),
	}
	for _, e := range h {
		switch {
		case e.Kind == model.KindCrash:
			f.crashed[e.Proc] = true
		case e.Kind == model.KindInternal && e.Tag == model.TagRestart:
			f.restarted[e.Proc] = true
		}
	}
	return f
}

// TestRestartStormCrossBackendFates: the restart-storm builtin drives the
// same crash/restart fates on the simulated and the live backend. Wall-clock
// scheduling makes live cycle counts timing-dependent, so agreement is on
// fates, not counts: the same set of processes plan-crashes, the same set
// restarts, every restart follows a crash (both histories validate), and
// both backends account restarts out of crashes consistently.
func TestRestartStormCrossBackendFates(t *testing.T) {
	const n, tt = 5, 2
	plan, err := failstop.BuiltinFaultPlan("restart-storm", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	stormProcs := map[failstop.ProcID]bool{n: true, n - 1: true}

	c := failstop.NewCluster(failstop.Options{
		N: n, T: tt, Seed: 11, MaxTime: 2000, Faults: &plan,
		Recovery: failstop.RecoveryDurable,
	})
	rep := c.Run()
	if err := rep.History.Validate(); err != nil {
		t.Fatalf("sim history invalid: %v", err)
	}
	simFate := historyFate(rep.History)
	if rep.PlanCrashes == 0 || rep.Restarts == 0 {
		t.Fatalf("sim: PlanCrashes=%d Restarts=%d, want both > 0", rep.PlanCrashes, rep.Restarts)
	}
	if rep.Restarts != rep.Recovered {
		t.Errorf("sim: Restarts=%d but Recovered=%d; durable restarts must restore a snapshot",
			rep.Restarts, rep.Recovered)
	}

	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: n, T: tt, Seed: 11, Faults: &plan,
		Recovery: failstop.RecoveryDurable,
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	// One full storm cycle is RestartStormPeriod=400 ticks = 40ms at this
	// tick rate; 300ms of wall clock covers several cycles on both procs.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if lc.Metrics().Value("net_restarts_total") >= 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	lc.Stop()
	h := lc.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("live history invalid: %v", err)
	}
	liveFate := historyFate(h)
	ms := lc.Metrics()
	planCrashes, restarts, recovered := ms.Value("net_plan_crashes_total"), ms.Value("net_restarts_total"), ms.Value("net_recovered_total")
	if planCrashes == 0 || restarts == 0 {
		t.Fatalf("live: planCrashes=%d restarts=%d, want both > 0", planCrashes, restarts)
	}
	if restarts != recovered {
		t.Errorf("live: restarts=%d but recovered=%d", restarts, recovered)
	}

	for _, f := range []struct {
		name string
		fate stormFate
	}{{"sim", simFate}, {"live", liveFate}} {
		for p := failstop.ProcID(1); p <= n; p++ {
			if f.fate.crashed[p] != stormProcs[p] {
				t.Errorf("%s: proc %d crashed=%v, want %v", f.name, p, f.fate.crashed[p], stormProcs[p])
			}
			if f.fate.restarted[p] != stormProcs[p] {
				t.Errorf("%s: proc %d restarted=%v, want %v", f.name, p, f.fate.restarted[p], stormProcs[p])
			}
		}
	}
}

// TestMetricNamesCrossBackend: one stack — reliable delivery, the byz
// interposer, and a plan with restart lifetimes — reports the same metric
// names on both backends, with the simulator's sim_ prefix read as net_
// and its simulator-only sim_links_live gauge left out.
func TestMetricNamesCrossBackend(t *testing.T) {
	const n, tt = 5, 2
	plan, err := failstop.BuiltinFaultPlan("restart-storm", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	rel := failstop.ReliableOptions{Enabled: true, MaxRetries: 4}
	bz := failstop.ByzantineOptions{Enabled: true}
	rep := failstop.NewCluster(failstop.Options{
		N: n, T: tt, Seed: 3, MaxTime: 500, Faults: &plan,
		Recovery: failstop.RecoveryAmnesia, Reliable: rel, Byzantine: bz,
	}).Run()
	var simNames []string
	for _, m := range rep.Metrics {
		if m.Name == "sim_links_live" {
			continue
		}
		simNames = append(simNames, strings.Replace(m.Name, "sim_", "net_", 1))
	}
	sort.Strings(simNames)

	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: n, T: tt, Seed: 3, Faults: &plan,
		Recovery: failstop.RecoveryAmnesia, Reliable: rel, Byzantine: bz,
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	lc.Suspect(1, n)
	time.Sleep(5 * time.Millisecond)
	lc.Stop()
	var liveNames []string
	for _, m := range lc.Metrics() {
		liveNames = append(liveNames, m.Name)
	}
	sort.Strings(liveNames)

	if !reflect.DeepEqual(simNames, liveNames) {
		t.Errorf("metric names differ across backends:\n sim: %v\nlive: %v", simNames, liveNames)
	}
	for _, want := range []string{"net_restarts_total", "reliable_retransmits_total", "byz_detected_total"} {
		if i := sort.SearchStrings(liveNames, want); i == len(liveNames) || liveNames[i] != want {
			t.Errorf("live metrics lack %s: %v", want, liveNames)
		}
	}
}
