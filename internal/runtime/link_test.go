package runtime_test

import (
	"strings"
	"testing"
	"time"

	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/runtime"
)

// TestLiveLinkDrop verifies the transport hook: a plan that cuts 1->2
// suppresses every delivery on that link while the reverse direction still
// flows, and the drop counter reflects it.
func TestLiveLinkDrop(t *testing.T) {
	cfg := fastCfg(2, 3)
	plane := netadv.NewPlane(netadv.Plan{Name: "cut", Rules: []netadv.Rule{
		{Cut: true, Links: netadv.LinkSet{Pairs: []netadv.Link{{From: 1, To: 2}}}},
	}}, 2, 3)
	cfg.Link = plane.Decide
	net := runtime.New(cfg)
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	for i := 0; i < 5; i++ {
		net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "DOOMED"}) })
		net.Do(2, func(ctx node.Context) { ctx.Send(1, node.Payload{Tag: "OK"}) })
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(c1.tags()) < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	if got := c2.tags(); len(got) != 0 {
		t.Errorf("process 2 received %v across a cut link", got)
	}
	if got := c1.tags(); len(got) != 5 {
		t.Errorf("process 1 received %d messages, want 5", len(got))
	}
	ms := net.Metrics()
	if dropped, duplicated := ms.Value("net_dropped_total"), ms.Value("net_duplicated_total"); dropped != 5 || duplicated != 0 {
		t.Errorf("dropped, duplicated = %d, %d; want 5, 0", dropped, duplicated)
	}
	// The recorded history shows the sends but no receive on the cut link.
	for _, e := range net.History() {
		if e.Kind == model.KindRecv && e.Peer == 1 && e.Proc == 2 {
			t.Errorf("history records a receive across the cut link: %s", e)
		}
	}
}

// TestLiveLinkDuplicate verifies duplication: every copy of a duplicated
// message is delivered and counted.
func TestLiveLinkDuplicate(t *testing.T) {
	cfg := fastCfg(2, 4)
	plane := netadv.NewPlane(netadv.Plan{Name: "dup", Rules: []netadv.Rule{
		{Duplicate: 1}, // every message duplicated once
	}}, 2, 4)
	cfg.Link = plane.Decide
	net := runtime.New(cfg)
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	for i := 0; i < 3; i++ {
		net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "D"}) })
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(c2.tags()) < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	net.Stop()
	if got := c2.tags(); len(got) != 6 {
		t.Errorf("process 2 received %d copies, want 6 (3 messages duplicated)", len(got))
	}
	if duplicated := net.Metrics().Value("net_duplicated_total"); duplicated != 3 {
		t.Errorf("duplicated = %d, want 3", duplicated)
	}
}

// TestLiveLinkPark verifies a parked message blocks its channel without
// stopping the rest of the network.
func TestLiveLinkPark(t *testing.T) {
	cfg := fastCfg(2, 5)
	parkFirst := func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		if p.Tag == "PARKED" {
			return node.LinkDecision{Park: true}
		}
		return node.LinkDecision{}
	}
	cfg.Link = parkFirst
	net := runtime.New(cfg)
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "PARKED"}) })
	net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "BEHIND"}) })
	net.Do(2, func(ctx node.Context) { ctx.Send(1, node.Payload{Tag: "OK"}) })
	deadline := time.Now().Add(500 * time.Millisecond)
	for len(c1.tags()) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // grace: nothing on 1->2 should move
	net.Stop()
	if got := c2.tags(); len(got) != 0 {
		t.Errorf("process 2 received %v behind a parked head", got)
	}
	if got := c1.tags(); len(got) != 1 || got[0] != "OK" {
		t.Errorf("process 1 got %v, want [OK]", got)
	}
}

// waitTags polls c until it holds n messages or two seconds pass.
func waitTags(c *collector, n int) []string {
	deadline := time.Now().Add(2 * time.Second)
	for len(c.tags()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return c.tags()
}

// TestLiveLinkReorder verifies the tail overtake: with A held back by an
// extra delay, B queued behind it, and C reordered, the channel delivers
// A, C, B.
func TestLiveLinkReorder(t *testing.T) {
	cfg := fastCfg(2, 6)
	cfg.Link = func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		switch p.Tag {
		case "A":
			return node.LinkDecision{ExtraDelay: 200} // 20ms at the test tick
		case "C":
			return node.LinkDecision{Reorder: true}
		}
		return node.LinkDecision{}
	}
	net := runtime.New(cfg)
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	net.Do(1, func(ctx node.Context) {
		for _, tag := range []string{"A", "B", "C"} {
			ctx.Send(2, node.Payload{Tag: tag})
		}
	})
	got := waitTags(c2, 3)
	net.Stop()
	if strings.Join(got, "") != "ACB" {
		t.Errorf("process 2 received %v, want [A C B]", got)
	}
}

// TestLiveLinkReplace verifies payload substitution: the receiver gets the
// network's payload while the history's send event keeps the sender's.
func TestLiveLinkReplace(t *testing.T) {
	cfg := fastCfg(2, 7)
	cfg.Link = func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		return node.LinkDecision{Replace: &node.Replacement{Payload: node.Payload{Tag: "FORGED"}, Note: "corrupt"}}
	}
	net := runtime.New(cfg)
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "REAL"}) })
	got := waitTags(c2, 1)
	net.Stop()
	if len(got) != 1 || got[0] != "FORGED" {
		t.Errorf("process 2 received %v, want [FORGED]", got)
	}
	var sent, recv string
	for _, e := range net.History() {
		switch e.Kind {
		case model.KindSend:
			sent = e.Tag
		case model.KindRecv:
			recv = e.Tag
		}
	}
	if sent != "REAL" || recv != "FORGED" {
		t.Errorf("history: send tag %q, receive tag %q; want REAL, FORGED", sent, recv)
	}
}

// TestLiveLinkReplay verifies the ghost copy: a replayed earlier payload
// lands after the message it rides along with and is not counted as a
// duplicate.
func TestLiveLinkReplay(t *testing.T) {
	cfg := fastCfg(2, 8)
	cfg.Link = func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		return node.LinkDecision{Replay: &node.ReplayedCopy{Payload: node.Payload{Tag: "GHOST"}, Delay: 10}}
	}
	net := runtime.New(cfg)
	c1, c2 := &collector{}, &collector{}
	net.SetHandler(1, c1)
	net.SetHandler(2, c2)
	net.Start()
	net.Do(1, func(ctx node.Context) { ctx.Send(2, node.Payload{Tag: "M"}) })
	got := waitTags(c2, 2)
	net.Stop()
	if strings.Join(got, ",") != "M,GHOST" {
		t.Errorf("process 2 received %v, want [M GHOST]", got)
	}
	ms := net.Metrics()
	if ms.Value("net_sent_total") != 1 || ms.Value("net_delivered_total") != 2 || ms.Value("net_duplicated_total") != 0 {
		t.Errorf("sent, delivered, duplicated = %d, %d, %d; want 1, 2, 0",
			ms.Value("net_sent_total"), ms.Value("net_delivered_total"), ms.Value("net_duplicated_total"))
	}
}
