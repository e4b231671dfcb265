package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"tpcxiot/internal/telemetry"
)

// putTrace is a hand-built put trace over [0, 100) ns: the client flush,
// its RPC, the server-side subtree stitched back from a TCP response, three
// replicas applying in parallel under the fan-out (one a straggler still
// running after the fan-out returned), a quorum wait beside them, and a
// span whose parent is missing from the trace.
func putTrace() *telemetry.Trace {
	span := func(id, parent uint64, name, service string, lo, hi int64) telemetry.SpanRecord {
		return telemetry.SpanRecord{TraceID: 7, SpanID: id, ParentID: parent, Name: name,
			Service: service, StartNs: 1000 + lo, DurNs: hi - lo}
	}
	return &telemetry.Trace{Spans: []telemetry.SpanRecord{
		span(2, 1, "client.flush", "client", 10, 90),
		span(3, 2, "rpc.mutate", "client", 12, 88),
		span(5, 4, "server.handler_wait", "server-1", 20, 25),
		span(7, 6, "replicate.0", "server-1", 26, 60),
		span(8, 6, "replicate.1", "server-1", 26, 70),
		span(9, 6, "replicate.2", "server-1", 26, 95),
		span(10, 6, "replication.quorum_wait", "server-1", 60, 70),
		span(6, 4, "replication.fanout", "server-1", 25, 80),
		span(4, 3, "server.mutate", "server-1", 20, 85),
		span(11, 999, "wal.append", "server-1", 95, 98),
		span(1, 0, "client.put", "client", 0, 100),
	}}
}

func TestSelfTimesSplitParallelChildren(t *testing.T) {
	fold := foldSelfTimes([]*telemetry.Trace{putTrace(), putTrace()})
	put := fold["client.put"]
	if put == nil || put.count != 2 || put.rootNs != 200 {
		t.Fatalf("fold = %+v, want 2 client.put traces over 200 ns", put)
	}
	want := map[string]float64{
		"client.put":              17, // [0,10) + [90,95) + [98,100)
		"client.flush":            4,
		"rpc.mutate":              11,
		"server.mutate":           5,
		"server.handler_wait":     5,
		"replication.fanout":      1,
		"replicate.0":             34.0 / 3,
		"replicate.1":             34.0/3 + 10.0/3,
		"replicate.2":             34.0/3 + 10.0/3 + 10, // clipped at the fan-out's end
		"replication.quorum_wait": 10.0 / 3,
		"wal.append":              3, // orphan, hung off the root
	}
	var sum float64
	for name, ns := range put.self {
		sum += ns
		if math.Abs(ns-2*want[name]) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, ns, 2*want[name])
		}
	}
	if len(put.self) != len(want) {
		t.Errorf("self-times for %d names, want %d: %v", len(put.self), len(want), put.self)
	}
	if math.Abs(sum-put.rootNs) > 1e-9 {
		t.Errorf("self-times sum to %v, want the root durations %v", sum, put.rootNs)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
}
