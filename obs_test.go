// Facade-level tests of the observability plane: metrics registries and
// span recorders flowing through both backends, span determinism, and the
// live /metrics endpoint.
package failstop_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"failstop"
)

// obsCluster builds a simulated cluster with a fresh registry and span
// recorder under the flaky-quorum plan, with one injected suspicion.
func obsCluster(t *testing.T, rate float64) (*failstop.Cluster, *failstop.MetricsRegistry, *failstop.SpanRecorder) {
	t.Helper()
	plan, err := failstop.BuiltinFaultPlan("flaky-quorum", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := failstop.NewMetricsRegistry()
	rec := failstop.NewSpanRecorder(11, rate)
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 11, MaxTime: 3000, Faults: &plan,
		Metrics: reg, Spans: rec,
	})
	c.SuspectAt(10, 2, 1)
	return c, reg, rec
}

func TestFacadeMetricsSnapshot(t *testing.T) {
	c, reg, _ := obsCluster(t, 0)
	rep := c.Run()
	if len(rep.Metrics) == 0 {
		t.Fatal("Report.Metrics is empty with a registry attached")
	}
	// The report merges the simulator's and the fault plane's counters, and
	// its counts agree with the legacy report fields.
	if got, want := rep.Metrics.Value("sim_dropped_total"), int64(rep.Dropped); got != want {
		t.Errorf("sim_dropped_total = %d, Report.Dropped = %d", got, want)
	}
	if v := rep.Metrics.Value("plane_decided_total"); v == 0 {
		t.Error("plane_decided_total = 0 under an active plan")
	}
	if v := rep.Metrics.Value("sim_sent_total"); v == 0 {
		t.Error("sim_sent_total = 0 after a run")
	}
	// Snapshots are name-sorted, so renderings are stable.
	for i := 1; i < len(rep.Metrics); i++ {
		if rep.Metrics[i-1].Name >= rep.Metrics[i].Name {
			t.Errorf("metrics not sorted: %q before %q", rep.Metrics[i-1].Name, rep.Metrics[i].Name)
		}
	}
	// The live registry agrees with the report snapshot.
	if reg.Snapshot().Value("sim_sent_total") != rep.Metrics.Value("sim_sent_total") {
		t.Error("registry snapshot disagrees with the report snapshot")
	}
}

// TestSpanStreamDeterministic: the span stream is a pure function of
// (options, seed) — two runs marshal to identical bytes, including under
// partial sampling.
func TestSpanStreamDeterministic(t *testing.T) {
	for _, rate := range []float64{1, 0.4} {
		run := func() []byte {
			c, _, rec := obsCluster(t, rate)
			c.Run()
			raw, err := json.Marshal(rec.Spans())
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		a, b := run(), run()
		if string(a) != string(b) {
			t.Errorf("rate %g: span streams differ between identical runs", rate)
		}
		if string(a) == "null" {
			t.Errorf("rate %g: no spans recorded", rate)
		}
	}
}

// TestSpanLifecycleWellFormed checks the structural invariants sfs-check
// relies on: sequential IDs from 1, parents precede children, and every
// deliver/drop chains back to a send of the same message.
func TestSpanLifecycleWellFormed(t *testing.T) {
	c, _, rec := obsCluster(t, 1)
	c.Run()
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded at rate 1")
	}
	byID := map[int64]failstop.Span{}
	for i, s := range spans {
		if s.ID != int64(i)+1 {
			t.Fatalf("span %d has ID %d, want sequential from 1", i, s.ID)
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			t.Fatalf("span %d parent %d does not precede it", s.ID, s.Parent)
		}
		byID[s.ID] = s
	}
	sawDeliver := false
	for _, s := range spans {
		if s.Kind != failstop.SpanKind("deliver") && s.Kind != failstop.SpanKind("drop") {
			continue
		}
		sawDeliver = sawDeliver || s.Kind == failstop.SpanKind("deliver")
		// Walk up to the nearest send ancestor; it must be this message's.
		// (Chains continue past it across messages: a send issued inside a
		// handler parents to that delivery's span.)
		cur := s
		for cur.Parent != 0 && cur.Kind != failstop.SpanKind("send") {
			cur = byID[cur.Parent]
		}
		if cur.Kind != failstop.SpanKind("send") || cur.Msg != s.Msg {
			t.Errorf("span %d (%s msg %d) reaches %s msg %d, want its own send",
				s.ID, s.Kind, s.Msg, cur.Kind, cur.Msg)
		}
	}
	if !sawDeliver {
		t.Error("no deliver spans in a full-rate run")
	}
}

// spanProfile reduces a span stream to its backend-independent content: the
// sorted multiset of lifecycle steps, each as (kind, proc, peer, tag,
// target), dropping IDs and times (which are scheduling artifacts on the
// live backend).
func spanProfile(spans []failstop.Span) []string {
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		out = append(out, fmt.Sprintf("%s p%d peer%d %q t%d", s.Kind, s.Proc, s.Peer, s.Tag, s.Target))
	}
	sort.Strings(out)
	return out
}

// TestSpanCrossBackendAgreement: under the same deterministic cut plan and
// injected suspicions, the simulated and live backends record the same
// lifecycle steps — the spans differ only in IDs and timestamps, so their
// profiles (kind, endpoints, tag) must match exactly. The cut is active
// from tick 0 (splitBrainNow), so neither backend can race its onset.
func TestSpanCrossBackendAgreement(t *testing.T) {
	simRec := failstop.NewSpanRecorder(3, 1)
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 3, MaxTime: 3000, Faults: splitBrainNow(), Spans: simRec,
	})
	c.SuspectAt(20, 1, 4)
	rep := c.Run()
	if rep.History.FailedIndex(1, 4) < 0 {
		t.Fatal("sim: detection did not complete")
	}

	liveRec := failstop.NewSpanRecorder(3, 1)
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 5, T: 2, Seed: 3, Faults: splitBrainNow(), Spans: liveRec,
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	lc.Suspect(1, 4)
	// The split brain lets the majority {1,2,3} detect 4 (the minority
	// cannot reach a quorum of 3). Each of them executes failed(4) only
	// after hearing SUSP from the other two, so once all three have, every
	// majority-side message has been delivered and the live span stream
	// matches the simulator's quiescent one. Waiting on process 1 alone
	// would stop the cluster while 2 and 3 are still mid-step.
	majorityFailed := func() bool {
		h := lc.History()
		for p := failstop.ProcID(1); p <= 3; p++ {
			if h.FailedIndex(p, 4) < 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(2 * time.Second)
	for !majorityFailed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	if lc.History().FailedIndex(1, 4) < 0 {
		t.Fatal("live: detection did not complete")
	}

	simProf, liveProf := spanProfile(rep.Spans), spanProfile(lc.Spans())
	if len(simProf) == 0 {
		t.Fatal("sim recorded no spans")
	}
	if strings.Join(simProf, "\n") != strings.Join(liveProf, "\n") {
		t.Errorf("backends recorded different lifecycle steps:\n--- sim (%d)\n%s\n--- live (%d)\n%s",
			len(simProf), strings.Join(simProf, "\n"), len(liveProf), strings.Join(liveProf, "\n"))
	}
}

// TestFacadeTimeline: the sim backend samples ring-buffered series at the
// configured cadence and reports them sorted by name.
func TestFacadeTimeline(t *testing.T) {
	tl := failstop.NewTimeline(5, 0)
	c := failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 4, MaxTime: 500, Timeline: tl,
	})
	c.SuspectAt(10, 2, 1)
	rep := c.Run()
	if len(rep.Timeline) == 0 {
		t.Fatal("Report.Timeline empty with a timeline attached")
	}
	names := make([]string, 0, len(rep.Timeline))
	for _, s := range rep.Timeline {
		names = append(names, s.Name)
		if s.Every != 5 {
			t.Errorf("series %q cadence %d, want 5", s.Name, s.Every)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Time <= s.Points[i-1].Time {
				t.Errorf("series %q time not increasing at point %d", s.Name, i)
			}
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("timeline series not sorted: %v", names)
	}
}

// TestLiveMetricsEndpoint: the opt-in HTTP endpoint serves the cluster's
// merged metrics in the Prometheus text format while the cluster runs.
func TestLiveMetricsEndpoint(t *testing.T) {
	lc := failstop.NewLiveCluster(failstop.LiveOptions{
		N: 3, T: 1, Seed: 1,
		Metrics:     failstop.NewMetricsRegistry(),
		MetricsAddr: "127.0.0.1:0",
		MinDelay:    50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: 100 * time.Microsecond,
	})
	lc.Start()
	defer lc.Stop()
	lc.Suspect(1, 3)
	deadline := time.Now().Add(2 * time.Second)
	for lc.History().FailedIndex(1, 3) < 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	addr := lc.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty after Start")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"# TYPE net_sent_total counter", "net_sent_total "} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics body missing %q:\n%s", want, text)
		}
	}

	// Unknown paths 404; the endpoint dies with the cluster.
	if resp, err := http.Get("http://" + addr + "/other"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /other: %s, want 404", resp.Status)
		}
	}
	lc.Stop()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint still serving after Stop")
	}
}
