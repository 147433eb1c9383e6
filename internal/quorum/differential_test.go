package quorum_test

import (
	"math/rand"
	"testing"

	"failstop/internal/adversary"
	"failstop/internal/model"
	"failstop/internal/quorum"
)

// randomFamily draws a family of at most 10 quorums over processes 1..n,
// n ≤ 130 (so sets span up to three words), with sizes scattered around a
// Theorem 7 bound so that both verdicts, and both the counting fast path
// and the search, come up often. t is drawn from 0..6.
func randomFamily(rng *rand.Rand) ([]quorum.Set, int) {
	n := 1 + rng.Intn(130)
	fam := make([]quorum.Set, rng.Intn(11))
	base := quorum.MinSize(n, 1+rng.Intn(6)) + rng.Intn(7) - 4
	for i := range fam {
		size := min(max(base+rng.Intn(3)-1, 0), n)
		for _, idx := range rng.Perm(n)[:size] {
			fam[i].Add(model.ProcID(idx + 1))
		}
	}
	return fam, rng.Intn(7)
}

// emptyIntersectionFamilies returns every Theorem 7 adversarial family for
// n ≤ 64 and t ≤ 8.
func emptyIntersectionFamilies() [][]quorum.Set {
	var out [][]quorum.Set
	for n := 1; n <= 64; n++ {
		for t := 1; t <= 8; t++ {
			if fam := quorum.EmptyIntersectionFamily(n, t); fam != nil {
				out = append(out, fam)
			}
		}
	}
	return out
}

// ringFamilies returns E6's ring families: the quorums of the Appendix A.3
// ring detections, one below and at the Theorem 7 bound, with k the ring
// length.
func ringFamilies() (fams [][]quorum.Set, ks []int) {
	for _, tc := range []struct{ n, k int }{{5, 2}, {7, 2}, {10, 3}, {13, 3}, {17, 4}, {26, 5}} {
		for _, q := range []int{quorum.MinSize(tc.n, tc.k) - 1, quorum.MinSize(tc.n, tc.k)} {
			fams = append(fams, adversary.RunCycleScenario(tc.n, tc.k, q, 1).RingQuorums)
			ks = append(ks, tc.k)
		}
	}
	return fams, ks
}

// agree checks SubfamiliesIntersect and Witness against the reference
// oracle on one family and reports SubfamiliesIntersect's verdict.
func agree(t *testing.T, fam []quorum.Set, tt int) bool {
	t.Helper()
	got, want := quorum.SubfamiliesIntersect(fam, tt), quorum.RefSubfamiliesIntersect(fam, tt)
	if got != want {
		t.Fatalf("SubfamiliesIntersect(%v, %d) = %v, oracle says %v", fam, tt, got, want)
	}
	gw, gok := quorum.Witness(fam)
	ww, wok := quorum.RefWitness(fam)
	if gw != ww || gok != wok {
		t.Fatalf("Witness(%v) = %d, %v; oracle says %d, %v", fam, gw, gok, ww, wok)
	}
	return got
}

func TestSubfamiliesIntersectMatchesOracleRandom(t *testing.T) {
	runs := 20000
	if testing.Short() {
		runs = 2000
	}
	rng := rand.New(rand.NewSource(7))
	violating := 0
	for i := 0; i < runs; i++ {
		fam, tt := randomFamily(rng)
		if !agree(t, fam, tt) {
			violating++
		}
	}
	// The generator is only useful if both verdicts are common.
	if violating < runs/10 || violating > runs*9/10 {
		t.Errorf("%d of %d random families violate: generator is lopsided", violating, runs)
	}
}

func TestSubfamiliesIntersectMatchesOracleEmptyIntersection(t *testing.T) {
	for _, fam := range emptyIntersectionFamilies() {
		for tt := 0; tt <= len(fam)+1; tt++ {
			agree(t, fam, tt)
		}
	}
}

func TestSubfamiliesIntersectMatchesOracleRings(t *testing.T) {
	fams, ks := ringFamilies()
	for i, fam := range fams {
		for tt := 1; tt <= ks[i]+1; tt++ {
			agree(t, fam, tt)
		}
	}
}

// encodeFamily is decodeFamily's inverse for members 0..255: byte 0 is t,
// then each set is a member count followed by its members.
func encodeFamily(fam []quorum.Set, tt int) []byte {
	out := []byte{byte(tt)}
	for _, s := range fam {
		var ms []byte
		for p := 0; p < 256; p++ {
			if s.Has(model.ProcID(p)) {
				ms = append(ms, byte(p))
			}
		}
		out = append(out, byte(len(ms)))
		out = append(out, ms...)
	}
	return out
}

// decodeFamily reads at most 12 sets and t ≤ 7 from data, so that the
// oracle's C(m,t) enumeration stays cheap. A truncated set keeps the
// members present.
func decodeFamily(data []byte) ([]quorum.Set, int) {
	if len(data) == 0 {
		return nil, 0
	}
	tt, data := int(data[0]%8), data[1:]
	var fam []quorum.Set
	for len(data) > 0 && len(fam) < 12 {
		k := min(int(data[0]), len(data)-1)
		var s quorum.Set
		for _, p := range data[1 : 1+k] {
			s.Add(model.ProcID(p))
		}
		fam = append(fam, s)
		data = data[1+k:]
	}
	return fam, tt
}

func FuzzSubfamiliesIntersect(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		f.Add(encodeFamily(randomFamily(rng)))
	}
	for _, fam := range emptyIntersectionFamilies() {
		f.Add(encodeFamily(fam, len(fam)))
	}
	fams, ks := ringFamilies()
	for i, fam := range fams {
		f.Add(encodeFamily(fam, ks[i]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fam, tt := decodeFamily(data)
		agree(t, fam, tt)
	})
}
