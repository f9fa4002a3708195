package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// smokeConfig is a 100 ms window over two payloads with one set-up: enough
// to send every op kind through the correctness gate.
var smokeConfig = config{payloads: 2, window: 100 * time.Millisecond, setupReps: 1, allocTraversals: 1}

// TestSmoke keeps the benchmark from rotting: every workload runs untraced
// and traced under plain `go test ./...`, gate on, and must report every
// metric BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		inst, err := newInstance(s, 1, smokeConfig.payloads)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, run := range []struct {
			kind    string
			metrics []metric
			f       func() (*result, error)
		}{
			{"untraced", endToEndMetrics, func() (*result, error) { return measure(inst, smokeConfig) }},
			{"traced", perLayerMetrics, func() (*result, error) { return trace(inst, smokeConfig, io.Discard) }},
		} {
			t.Run(s.name+"/"+run.kind, func(t *testing.T) {
				res, err := run.f()
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
				}
				for _, m := range run.metrics {
					if _, ok := res.values[m.name]; !ok {
						t.Errorf("metric %s not reported", m.name)
					}
				}
				for name := range res.values {
					if !hasMetric(run.metrics, name) {
						t.Errorf("reports %s, which BENCHMARK.json does not name", name)
					}
				}
			})
		}
	}
}

func hasMetric(ms []metric, name string) bool {
	for _, m := range ms {
		if m.name == name {
			return true
		}
	}
	return false
}

// TestCorruptReferenceFails is the gate's own test: one wrong reference
// digest must turn into failed ops, which run() turns into a non-zero exit.
func TestCorruptReferenceFails(t *testing.T) {
	s, _ := specByName("stream_chunks")
	inst, err := newInstance(s, 1, smokeConfig.payloads)
	if err != nil {
		t.Fatal(err)
	}
	inst.payloads[1].refs[0].digest++
	res, err := measure(inst, smokeConfig)
	if err != nil {
		t.Fatal(err)
	}
	// The count still agrees, so only the two full traversals see it.
	if res.failed != 2 {
		t.Errorf("%d failed ops with a corrupt digest, want 2 (first error: %v)", res.failed, res.firstErr)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	for _, c := range []struct {
		kind string
		got  []jsonMetric
		want []metric
	}{{"end_to_end", file.EndToEnd, boundedMetrics}, {"per_layer", file.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, g := range c.got {
			if w := c.want[i]; g != (jsonMetric{w.name, w.unit, w.better, w.bound}) {
				t.Errorf("%s[%d] = %+v, want %+v", c.kind, i, g, w)
			}
		}
	}
}
