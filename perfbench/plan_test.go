package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func planJSON(t *testing.T, w string, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := int64(0); i < int64(n); i++ {
		if err := enc.Encode(planOp(w, seed, i, int(i%clients))); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestPlanIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		if !bytes.Equal(planJSON(t, w, 7, 200), planJSON(t, w, 7, 200)) {
			t.Errorf("%s: two plans for seed 7 differ", w)
		}
		if !bytes.Equal(datasetCSV(w, 7), datasetCSV(w, 7)) {
			t.Errorf("%s: two datasets for seed 7 differ", w)
		}
	}
	if !bytes.Equal(ingestCSV(7, 3), ingestCSV(7, 3)) {
		t.Error("ingest: two upload bodies for seed 7, op 3 differ")
	}
}

func TestPlanDiffersAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		if w != "ingest" && bytes.Equal(planJSON(t, w, 7, 50), planJSON(t, w, 8, 50)) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w)
		}
		if w != "ingest" && bytes.Equal(datasetCSV(w, 7), datasetCSV(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same dataset", w)
		}
	}
	if bytes.Equal(ingestCSV(7, 0), ingestCSV(8, 0)) {
		t.Error("ingest: seeds 7 and 8 give the same upload body")
	}
}

// TestOpsAreDistinct guards the no-sharing rule: no two ops of a run, warm-up
// ops included, may send the same request or upload body.
func TestOpsAreDistinct(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]int64{}
		for i := int64(-2 * warmupPerCli); i < 1000; i++ {
			op := planOp(w, 1, i, 0)
			key := string(mustJSON(t, op.Requests)) + string(mustJSON(t, op.Viewport))
			if w == "ingest" {
				if i >= 50 {
					break // upload bodies are large; 54 cover the check
				}
				key = string(ingestCSV(1, i))
			}
			if j, dup := seen[key]; dup {
				t.Fatalf("%s: ops %d and %d are identical", w, j, i)
			}
			seen[key] = i
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseProm(t *testing.T) {
	p := parseProm([]byte(`# HELP geostatd_requests_total tool requests served
# TYPE geostatd_requests_total counter
geostatd_requests_total{tool="kdv"} 3
geostatd_requests_total{tool="moran"} 2
geostatd_errors_total{kind="overload"} 1
serve_compute_total 5
`))
	if p["geostatd_requests_total"] != 5 || p["serve_compute_total"] != 5 ||
		p[`geostatd_errors_total{kind="overload"}`] != 1 || p["geostatd_errors_total"] != 1 {
		t.Fatalf("parseProm = %v", p)
	}
}
