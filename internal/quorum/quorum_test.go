package quorum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"failstop/internal/model"
)

func TestMinSizeKnownValues(t *testing.T) {
	tests := []struct {
		n, t, want int
	}{
		{1, 1, 1},
		{5, 1, 1},     // t=1: unilateral detection is safe
		{4, 2, 3},     // > 4*1/2 = 2 -> 3
		{5, 2, 3},     // > 2.5 -> 3
		{9, 3, 7},     // > 6 -> 7
		{10, 3, 7},    // > 6.67 -> 7
		{16, 4, 13},   // > 12 -> 13
		{17, 4, 13},   // > 12.75 -> 13
		{100, 10, 91}, // > 90 -> 91
		{7, 2, 4},     // > 3.5 -> 4
		{2, 2, 2},     // > 1 -> 2
	}
	for _, tt := range tests {
		if got := MinSize(tt.n, tt.t); got != tt.want {
			t.Errorf("MinSize(%d, %d) = %d, want %d", tt.n, tt.t, got, tt.want)
		}
	}
}

// Property: MinSize is the smallest integer q with q*t > n*(t-1).
func TestMinSizeIsTight(t *testing.T) {
	prop := func(nRaw, tRaw uint8) bool {
		n := int(nRaw%200) + 1
		tt := int(tRaw%20) + 1
		q := MinSize(n, tt)
		return q*tt > n*(tt-1) && (q-1)*tt <= n*(tt-1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMinSizePanics(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {-3, 2}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MinSize(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			MinSize(bad[0], bad[1])
		}()
	}
}

func TestMaxTolerable(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 0},
		{2, 1},
		{4, 1}, // need n > t^2: 4 > 1 ok, 4 > 4 no
		{5, 2},
		{9, 2},
		{10, 3},
		{16, 3},
		{17, 4},
		{101, 10},
	}
	for _, tt := range tests {
		if got := MaxTolerable(tt.n); got != tt.want {
			t.Errorf("MaxTolerable(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// Property: MaxTolerable(n) is the largest t with n > t^2 (Corollary 8).
func TestMaxTolerableMatchesCorollary8(t *testing.T) {
	for n := 1; n <= 500; n++ {
		tt := MaxTolerable(n)
		if !(n > tt*tt) {
			t.Fatalf("n=%d: t=%d violates n > t^2", n, tt)
		}
		if n > (tt+1)*(tt+1) {
			t.Fatalf("n=%d: t=%d not maximal", n, tt)
		}
	}
}

// Property: Progresses(n, t) iff n > t^2 (Corollary 8, both directions).
func TestProgressesEquivalentToCorollary8(t *testing.T) {
	for n := 1; n <= 200; n++ {
		for tt := 1; tt <= 15; tt++ {
			got := Progresses(n, tt)
			want := n > tt*tt
			if got != want {
				t.Errorf("Progresses(%d, %d) = %v, want %v", n, tt, got, want)
			}
		}
	}
}

func TestWitness(t *testing.T) {
	tests := []struct {
		name    string
		quorums []Set
		holds   bool
	}{
		{"empty family", nil, true},
		{"single", []Set{SetOf(1, 2)}, true},
		{"common witness", []Set{SetOf(1, 2, 3), SetOf(3, 4), SetOf(2, 3, 5)}, true},
		{"pairwise but not global", []Set{SetOf(1, 2), SetOf(2, 3), SetOf(3, 1)}, false},
		{"disjoint", []Set{SetOf(1), SetOf(2)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w, ok := Witness(tt.quorums)
			if ok != tt.holds {
				t.Fatalf("Witness = %v, want %v", ok, tt.holds)
			}
			if ok && len(tt.quorums) > 0 {
				for i, q := range tt.quorums {
					if !q.Has(w) {
						t.Errorf("claimed witness %d not in quorum %d", w, i)
					}
				}
			}
		})
	}
}

func TestEmptyIntersectionFamily(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{4, 2}, {9, 3}, {10, 3}, {16, 4}, {25, 5}, {7, 2}} {
		fam := EmptyIntersectionFamily(tc.n, tc.t)
		if fam == nil {
			t.Fatalf("no family for n=%d t=%d", tc.n, tc.t)
		}
		if _, ok := Witness(fam); ok {
			t.Errorf("n=%d t=%d: family has a witness, want empty intersection", tc.n, tc.t)
		}
		// Every quorum in the family must have size >= n - ceil(n/t), i.e.
		// at most MinSize-1 in the tight cases: the family demonstrates that
		// quorums of size <= n(t-1)/t cannot guarantee W.
		for i, q := range fam {
			if q.Len() > tc.n*(tc.t-1)/tc.t {
				t.Errorf("n=%d t=%d: quorum %d has size %d > n(t-1)/t = %d",
					tc.n, tc.t, i, q.Len(), tc.n*(tc.t-1)/tc.t)
			}
		}
	}
}

func TestEmptyIntersectionFamilyDegenerate(t *testing.T) {
	if fam := EmptyIntersectionFamily(0, 3); fam != nil {
		t.Error("n=0 must yield nil")
	}
	if fam := EmptyIntersectionFamily(5, 0); fam != nil {
		t.Error("t=0 must yield nil")
	}
	// t=1: a single window excludes everyone only if y >= n, leaving an
	// empty quorum; the family trivially has empty intersection.
	fam := EmptyIntersectionFamily(5, 1)
	if fam != nil {
		if _, ok := Witness(fam); ok {
			t.Error("t=1 family must have empty intersection if returned")
		}
	}
}

// Property: any family of t quorums each of size MinSize(n,t) over 1..n has
// a nonempty intersection — the positive direction of Theorem 7, checked by
// a greedy adversarial cover: even excluding each quorum's complement
// windows cannot cover all processes.
func TestMinSizeGuaranteesWitnessAdversarially(t *testing.T) {
	for n := 2; n <= 40; n++ {
		for tt := 2; tt <= 6; tt++ {
			q := MinSize(n, tt)
			// The adversary excludes n-q processes per quorum; t quorums can
			// exclude at most t*(n-q) processes in total. Witness is
			// guaranteed iff t*(n-q) < n.
			if tt*(n-q) >= n {
				t.Errorf("n=%d t=%d: quorums of size %d can be made witness-free", n, tt, q)
			}
		}
	}
}

func TestSubfamiliesIntersect(t *testing.T) {
	pairwise := []Set{
		SetOf(1, 2), SetOf(2, 3), SetOf(3, 1),
	}
	if !SubfamiliesIntersect(pairwise, 2) {
		t.Error("pairwise-intersecting family must pass t=2")
	}
	if SubfamiliesIntersect(pairwise, 3) {
		t.Error("family with empty triple intersection must fail t=3")
	}
	disjoint := []Set{SetOf(1), SetOf(2)}
	if SubfamiliesIntersect(disjoint, 2) {
		t.Error("disjoint pair must fail t=2")
	}
	// Degenerate inputs.
	if !SubfamiliesIntersect(nil, 3) {
		t.Error("empty family trivially intersects")
	}
	if !SubfamiliesIntersect(disjoint, 0) {
		t.Error("t=0 trivially holds")
	}
	if !SubfamiliesIntersect(disjoint, 1) {
		t.Error("singleton subfamilies always intersect (nonempty sets)")
	}
	single := []Set{SetOf(1, 2)}
	if !SubfamiliesIntersect(single, 5) {
		t.Error("t larger than the family must clamp")
	}
}

// Property: quorums of size MinSize(n,t) always pass the t-subfamily check
// (Theorem 7, positive direction) regardless of which members they contain.
func TestQuickMinSizeFamiliesAlwaysIntersect(t *testing.T) {
	prop := func(seed int64, nRaw, tRaw uint8) bool {
		n := int(nRaw%12) + 4
		tt := int(tRaw%3) + 2
		q := MinSize(n, tt)
		if q > n {
			return true
		}
		rng := newTestRand(seed)
		fam := make([]Set, tt+2)
		for i := range fam {
			// A random q-subset of 1..n.
			perm := rng.Perm(n)
			for _, idx := range perm[:q] {
				fam[i].Add(model.ProcID(idx + 1))
			}
		}
		return SubfamiliesIntersect(fam, tt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
