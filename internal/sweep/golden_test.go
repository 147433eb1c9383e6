package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"failstop/internal/byz"
	"failstop/internal/netadv"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
)

// goldenSpec is the grid behind the committed report fixtures in testdata.
// It is the Spec that
//
//	sfs-sweep -grid 5:2 -seeds 3 -plan flaky-quorum,byzantine-minority,restart-storm \
//	  -plan-file dup-reorder.json -reliable both -recovery all -byz both \
//	  -schedules false-suspicion -max-time 2000 -max-retries 8 -workers 2
//
// builds, and it fills every counter column of the report: drops
// (flaky-quorum), duplicates (dup-reorder), retransmits and acked
// duplicates (the reliable axis), crashes, restarts and recoveries
// (restart-storm under amnesia and durable recovery), and convictions,
// masked frames, corruptions, equivocations and replays
// (byzantine-minority with the interposer on).
//
// The fixtures were written by that command (text, -json -, -csv -, and
// -shard 0/2 and 1/2 with -json, then -merge of the two shard files).
// Regenerate them the same way only when a report change is intended.
func goldenSpec(t *testing.T) Spec {
	t.Helper()
	var plans []netadv.Generator
	for _, name := range []string{"flaky-quorum", "byzantine-minority", "restart-storm"} {
		g, ok := netadv.Builtin(name)
		if !ok {
			t.Fatalf("no builtin plan %q", name)
		}
		plans = append(plans, g)
	}
	pl, err := netadv.ReadPlanFile(filepath.Join("testdata", "dup-reorder.json"))
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, netadv.Fixed(pl))
	falseSusp, _ := Builtin("false-suspicion")
	return Spec{
		Grid:      []NT{{5, 2}},
		Seeds:     SeedRange{Count: 3},
		Schedules: []Schedule{falseSusp},
		Plans:     plans,
		Reliable:  []reliable.Options{{}, {Enabled: true, MaxRetries: 8}},
		Recovery:  []recovery.Mode{recovery.Off, recovery.Amnesia, recovery.Durable},
		Byzantine: []byz.Options{{}, {Enabled: true}},
		MaxTime:   2000,
		Check:     true,
	}
}

// readGolden returns the named fixture from testdata.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertGolden fails with the first differing line when got is not
// byte-identical to the named fixture.
func assertGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want := readGolden(t, name)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
	t.Fatalf("%s differs", name)
}

// TestGoldenReports pins the text, JSON and CSV renderings of a sweep whose
// every counter column is non-zero somewhere, byte for byte.
func TestGoldenReports(t *testing.T) {
	rep, err := Run(goldenSpec(t), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "golden.txt", []byte(rep.String()+"\n"))
	var js, csv bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "golden.json", js.Bytes())
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "golden.csv", csv.Bytes())
}

// TestGoldenShardMerge pins both shard reports of a 2-way split and the
// report Merge rebuilds from the committed shard files.
func TestGoldenShardMerge(t *testing.T) {
	for i := 0; i < 2; i++ {
		spec := goldenSpec(t)
		spec.Shard = Shard{Index: i, Count: 2}
		rep, err := Run(spec, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		assertGolden(t, shardFixture(i), js.Bytes())
	}
	var shards []*Report
	for i := 0; i < 2; i++ {
		rep, err := ReadJSON(bytes.NewReader(readGolden(t, shardFixture(i))))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, rep)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "golden-merged.txt", []byte(merged.String()+"\n"))
	var js bytes.Buffer
	if err := merged.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "golden-merged.json", js.Bytes())
}

func shardFixture(i int) string { return fmt.Sprintf("golden-shard-%d-of-2.json", i) }
