package main

import "testing"

func TestSelfTimeSubtractsChildUnionOnce(t *testing.T) {
	spans := []span{
		{Name: "parent", StartNs: 0, EndNs: 100},                // id 1
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 1},          // 30
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 1},          // overlaps a: union 10..60 = 50
		{Name: "c", StartNs: 90, EndNs: 130, Parent: 1},         // clipped to 90..100 = 10
		{Name: "before", StartNs: -20, EndNs: 5, Parent: 1},     // clipped to 0..5 = 5
		{Name: "grandchild", StartNs: 12, EndNs: 20, Parent: 2}, // not the parent's child
		{Name: "orphan", StartNs: 0, EndNs: 7},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10 - 5, 30 - 8, 30, 40, 25, 8, 7}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeChildInsideChild(t *testing.T) {
	spans := []span{
		{Name: "parent", StartNs: 0, EndNs: 100},
		{Name: "wide", StartNs: 10, EndNs: 90, Parent: 1},
		{Name: "inner", StartNs: 20, EndNs: 30, Parent: 1}, // wholly inside wide
	}
	if got := selfTimes(spans)[0]; got != 20 {
		t.Errorf("self time = %d, want 20", got)
	}
}

func TestSpanLogIDsAndNilLog(t *testing.T) {
	var none *spanLog
	if id := none.add(span{Name: "x"}); id != 0 {
		t.Errorf("nil log returned id %d", id)
	}
	none.finish(0)
	l := &spanLog{}
	p := l.reserve("p", 7)
	c := l.add(span{Name: "c", Parent: p, TraceID: 7})
	l.finish(p)
	if p != 1 || c != 2 || l.spans[0].EndNs < l.spans[0].StartNs || l.spans[1].Parent != 1 {
		t.Errorf("unexpected log: %+v", l.spans)
	}
	if got := durationsOf([]span{{Name: "open", StartNs: 5}}, "open"); len(got) != 0 {
		t.Errorf("an unfinished span has no duration, got %v", got)
	}
}
