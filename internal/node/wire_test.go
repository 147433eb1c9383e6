package node

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"failstop/internal/model"
	"failstop/internal/obs"
)

// TestWireSend drives every LinkDecision field through Wire.Send with a
// fake enqueue, and checks the copies it hands over, the counters, and
// the span chain it records under the caller's parent span.
func TestWireSend(t *testing.T) {
	orig := Payload{Tag: "SUSP", Subject: 3, Data: []byte("orig")}
	forged := Payload{Tag: "SUSP", Subject: 3, Data: []byte("forged")}
	ghost := Payload{Tag: "SUSP", Subject: 2, Data: []byte("old")}
	// A chain lists each recorded span as "kind<parent", where parent is the
	// 1-based position of the parent span in the chain (0: the caller's).
	cases := []struct {
		name     string
		dec      LinkDecision
		want     []Copy // Span fields hold chain positions, not ids
		dups     int64
		dropped  int64
		chain    []string
		fateNote string
	}{
		{
			name:  "zero decision delivers one copy",
			want:  []Copy{{Payload: orig, Span: 2}},
			chain: []string{"send<0", "enqueue<1"},
		},
		{
			name:     "drop wins over every other field",
			dec:      LinkDecision{Drop: true, Duplicates: 2, Park: true, ExtraDelay: 4, Reorder: true, Replace: &Replacement{Payload: forged, Note: "corrupt"}, Replay: &ReplayedCopy{Payload: ghost, Delay: 9}},
			dropped:  1,
			chain:    []string{"send<0", "fate<1", "drop<2"},
			fateNote: "drop,park,reorder,dup=2,delay=+4,corrupt,replay=+9",
		},
		{
			name:     "duplicates add copies",
			dec:      LinkDecision{Duplicates: 2},
			want:     []Copy{{Payload: orig, Span: 3}, {Payload: orig, Span: 4}, {Payload: orig, Span: 5}},
			dups:     2,
			chain:    []string{"send<0", "fate<1", "enqueue<2", "enqueue<2", "enqueue<2"},
			fateNote: "dup=2",
		},
		{
			name:     "park holds every copy",
			dec:      LinkDecision{Park: true, Duplicates: 1},
			want:     []Copy{{Payload: orig, Park: true, Span: 3}, {Payload: orig, Park: true, Span: 4}},
			dups:     1,
			chain:    []string{"send<0", "fate<1", "enqueue<2", "enqueue<2"},
			fateNote: "park,dup=1",
		},
		{
			name:     "extra delay rides on each copy",
			dec:      LinkDecision{ExtraDelay: 5},
			want:     []Copy{{Payload: orig, Extra: 5, Span: 3}},
			chain:    []string{"send<0", "fate<1", "enqueue<2"},
			fateNote: "delay=+5",
		},
		{
			name:     "reorder marks each copy",
			dec:      LinkDecision{Reorder: true},
			want:     []Copy{{Payload: orig, Reorder: true, Span: 3}},
			chain:    []string{"send<0", "fate<1", "enqueue<2"},
			fateNote: "reorder",
		},
		{
			name:     "replace substitutes the wire payload",
			dec:      LinkDecision{Replace: &Replacement{Payload: forged, Note: "corrupt"}, Duplicates: 1},
			want:     []Copy{{Payload: forged, Span: 3}, {Payload: forged, Span: 4}},
			dups:     1,
			chain:    []string{"send<0", "fate<1", "enqueue<2", "enqueue<2"},
			fateNote: "dup=1,corrupt",
		},
		{
			name: "replay appends a later ghost",
			dec:  LinkDecision{ExtraDelay: 2, Reorder: true, Replay: &ReplayedCopy{Payload: ghost, Delay: 7}},
			want: []Copy{
				{Payload: orig, Extra: 2, Reorder: true, Span: 3},
				{Payload: ghost, Extra: 9, Reorder: true, Span: 4},
			},
			chain:    []string{"send<0", "fate<1", "enqueue<2", "enqueue<2"},
			fateNote: "reorder,delay=+2,replay=+7",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spans := obs.NewSpanRecorder(1, 1)
			parent := spans.Record(obs.Span{Kind: obs.SpanDeliver}) // the caller's span
			var seen Payload
			w := &Wire{
				Spans: spans,
				Link: func(from, to model.ProcID, p Payload, at int64) LinkDecision {
					if from != 1 || to != 2 || at != 40 {
						t.Errorf("link called with (%d, %d, at %d), want (1, 2, at 40)", from, to, at)
					}
					seen = p
					return tc.dec
				},
			}
			var got []Copy
			n := w.Send(1, 2, 7, orig, 40, parent, func(c Copy) { got = append(got, c) })
			if !reflect.DeepEqual(seen, orig) {
				t.Errorf("link saw %v, want the sender's payload", seen)
			}
			if n != len(got) {
				t.Errorf("Send returned %d, but enqueued %d copies", n, len(got))
			}
			// Translate span ids into chain positions (ids count from the
			// caller's span, which is id 1).
			for i := range got {
				if got[i].Span != 0 {
					got[i].Span -= parent
				}
			}
			if len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
				t.Errorf("copies =\n %+v\nwant\n %+v", got, tc.want)
			}
			if v := w.Sent.Value(); v != 1 {
				t.Errorf("sent = %d, want 1", v)
			}
			if v := w.Dropped.Value(); v != tc.dropped {
				t.Errorf("dropped = %d, want %d", v, tc.dropped)
			}
			if v := w.Duplicated.Value(); v != tc.dups {
				t.Errorf("duplicated = %d, want %d", v, tc.dups)
			}
			all := spans.Spans()[1:]
			var chain []string
			note := ""
			for _, s := range all {
				chain = append(chain, string(s.Kind)+"<"+strconv.FormatInt(s.Parent-parent, 10))
				if s.Time != 40 || s.Proc != 1 || s.Peer != 2 || s.Msg != 7 {
					t.Errorf("span %+v: want time 40, proc 1, peer 2, msg 7", s)
				}
				if s.Kind == obs.SpanFate {
					note = s.Note
				}
			}
			if strings.Join(chain, " ") != strings.Join(tc.chain, " ") {
				t.Errorf("span chain = %v, want %v", chain, tc.chain)
			}
			if note != tc.fateNote {
				t.Errorf("fate note = %q, want %q", note, tc.fateNote)
			}
			if all[0].Tag != "SUSP" || all[0].Target != 3 {
				t.Errorf("send span %+v: want tag SUSP, target 3", all[0])
			}
		})
	}
}

// TestWireSendUnsampled: an unsampled message (or a host without a span
// recorder) records no spans and hands over copies with Span 0, while the
// counters still move; a nil Link delivers one plain copy.
func TestWireSendUnsampled(t *testing.T) {
	for _, spans := range []*obs.SpanRecorder{nil, obs.NewSpanRecorder(1, 0)} {
		w := &Wire{Spans: spans, Link: func(model.ProcID, model.ProcID, Payload, int64) LinkDecision {
			return LinkDecision{Duplicates: 1}
		}}
		var got []Copy
		w.Send(1, 2, 1, Payload{Tag: "A"}, 0, 0, func(c Copy) { got = append(got, c) })
		if len(got) != 2 || got[0].Span != 0 || got[1].Span != 0 {
			t.Errorf("copies = %+v, want two unsampled copies", got)
		}
		if spans.Len() != 0 {
			t.Errorf("recorded %d spans for an unsampled message", spans.Len())
		}
		if w.Sent.Value() != 1 || w.Duplicated.Value() != 1 {
			t.Errorf("sent, duplicated = %d, %d; want 1, 1", w.Sent.Value(), w.Duplicated.Value())
		}
	}
	var w Wire
	var got []Copy
	if n := w.Send(1, 2, 1, Payload{Tag: "A"}, 0, 0, func(c Copy) { got = append(got, c) }); n != 1 {
		t.Errorf("nil link: %d copies, want 1", n)
	}
	if !reflect.DeepEqual(got, []Copy{{Payload: Payload{Tag: "A"}}}) {
		t.Errorf("nil link: copies = %+v", got)
	}
}

// TestEnqueue: a reordered message overtakes the tail only when the
// queue holds more than one message.
func TestEnqueue(t *testing.T) {
	cases := []struct {
		q       []int
		reorder bool
		want    []int
	}{
		{nil, false, []int{9}},
		{nil, true, []int{9}},
		{[]int{1}, true, []int{1, 9}},
		{[]int{1, 2}, false, []int{1, 2, 9}},
		{[]int{1, 2}, true, []int{1, 9, 2}},
		{[]int{1, 2, 3}, true, []int{1, 2, 9, 3}},
	}
	for _, tc := range cases {
		if got := Enqueue(append([]int(nil), tc.q...), 9, tc.reorder); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Enqueue(%v, 9, %v) = %v, want %v", tc.q, tc.reorder, got, tc.want)
		}
	}
}

// stubLayer is a handler wrapper exposing some of the layer counters.
type stubLayer struct {
	Handler
	inner    Handler
	rel, byz [2]int
}

func (s *stubLayer) Inner() Handler { return s.inner }

type relLayer struct{ *stubLayer }

func (r relLayer) ReliableStats() (int, int) { return r.rel[0], r.rel[1] }

type byzLayer struct{ *stubLayer }

func (b byzLayer) ByzStats() (int, int) { return b.byz[0], b.byz[1] }

// TestLayerStats: the walk finds the reliable layer at the top and the
// interposer beneath it, totals them over handlers, skips nil entries,
// and reports absent layers as absent.
func TestLayerStats(t *testing.T) {
	bz := byzLayer{&stubLayer{byz: [2]int{3, 4}}}
	top := relLayer{&stubLayer{rel: [2]int{5, 6}, inner: bz}}
	bare := &stubLayer{}
	got := LayerStats([]Handler{nil, top, top, bare})
	want := Layers{Reliable: true, Byz: true, Retransmits: 10, AckedDuplicates: 12, ByzDetected: 6, ByzMasked: 8}
	if got != want {
		t.Errorf("LayerStats = %+v, want %+v", got, want)
	}
	if got := LayerStats([]Handler{nil, bare}); got != (Layers{}) {
		t.Errorf("LayerStats without layers = %+v, want zero", got)
	}
}

// TestCountersSnapshot: names carry the host prefix, recovery counters
// appear only with lifetimes, and the snapshot is sorted by name.
func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.Sent.Add(3)
	c.Restarts.Inc()
	names := NewMetricNames("net")
	ms := c.Snapshot(names, false, Layers{Byz: true, ByzDetected: 2},
		obs.Metric{Name: "net_links_live", Kind: obs.KindGauge, Value: 4})
	var got []string
	for _, m := range ms {
		got = append(got, m.Name)
	}
	want := []string{"byz_detected_total", "byz_masked_total", "net_delivered_total", "net_dropped_total",
		"net_duplicated_total", "net_links_live", "net_sent_total", "net_timers_fired_total"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("names = %v, want %v", got, want)
	}
	if ms.Value("net_sent_total") != 3 || ms.Value("byz_detected_total") != 2 || ms.Value("net_links_live") != 4 {
		t.Errorf("values wrong: %v", ms)
	}
	ms = c.Snapshot(names, true, Layers{})
	if ms.Value("net_restarts_total") != 1 || len(ms) != 8 {
		t.Errorf("with lifetimes: %v", ms)
	}
	reg := obs.NewRegistry()
	c.Register(reg, names, true)
	if !reflect.DeepEqual(reg.Snapshot(), ms) {
		t.Errorf("registry snapshot %v != counters snapshot %v", reg.Snapshot(), ms)
	}
}
