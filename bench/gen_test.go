package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := newGenerator(7), newGenerator(7), newGenerator(8)
	ka, kb, kc := a.keys(4, 8), b.keys(4, 8), c.keys(4, 8)
	if !reflect.DeepEqual(ka, kb) || reflect.DeepEqual(ka, kc) {
		t.Error("keys must depend on the seed and on nothing else")
	}
	da, err := a.fsDocs(8)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := b.fsDocs(8)
	if !reflect.DeepEqual(da, db) {
		t.Error("fs docs differ under one seed")
	}
	for i, d := range da {
		var doc struct {
			Value struct {
				EventType string `json:"event_type"`
			} `json:"value"`
		}
		if err := json.Unmarshal(d, &doc); err != nil {
			t.Fatal(err)
		}
		if (doc.Value.EventType == "created") != isCreate(uint64(i)) {
			t.Errorf("doc %d is %q", i, doc.Value.EventType)
		}
	}
}

func TestStampRoundTrip(t *testing.T) {
	hdr, body := make([]byte, hdrLen), []byte("payload")
	stamp(hdr, 42, 123456789, body)
	seq, due, ok := unstamp(hdr, body)
	if seq != 42 || due != 123456789 || !ok {
		t.Errorf("unstamp = %d, %d, %v", seq, due, ok)
	}
	if _, _, ok := unstamp(hdr, []byte("pAyload")); ok {
		t.Error("a changed body must fail the crc")
	}
	if _, _, ok := unstamp(hdr[:10], body); ok {
		t.Error("a short header must not verify")
	}
}

func TestPacerDueTimes(t *testing.T) {
	p := newPacer(1000, 2000)
	if p.due(0) != 1000 || p.due(2) != 1000+1_000_000 {
		t.Errorf("due(0), due(2) = %d, %d", p.due(0), p.due(2))
	}
	p.sent(2, p.due(2)+250_000)
	if len(p.late) != 1 || p.late[0] != 0.25 {
		t.Errorf("lateness = %v, want [0.25] ms", p.late)
	}
}

// BENCHMARK.json and the tables in metrics.go and main.go name the same
// workloads and metrics, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q in the program", i, doc.Workloads[i], w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
}
