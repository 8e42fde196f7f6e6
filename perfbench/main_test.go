package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program's output must match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// tinyScale runs every workload's code paths in a fraction of a second.
func tinyScale(t *testing.T) scale {
	return scale{
		sections:        16,
		sectionBytes:    48,
		docs:            4,
		docSections:     3,
		docBytes:        64,
		offlineSections: 4,
		reads:           8,
		setups:          2,
		walRoot:         t.TempDir(),
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var names []string
	for _, w := range readDeclared(t).Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", names, have)
	}
}

// TestSmoke runs each workload at tiny scale, untraced and traced, and
// checks that its output checks pass and that it prints every metric
// BENCHMARK.json declares, with the declared unit.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			cfg := config{
				workload: name,
				seed:     7,
				seconds:  2, // a traced run records spans from its second window on
				trace:    traced,
				spanOut:  filepath.Join(t.TempDir(), "spans.jsonl"),
				scale:    tinyScale(t),
			}
			var out bytes.Buffer
			ok, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line %q: %v", name, traced, lines[len(lines)-1], err)
			}
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, found := res.Metrics[m.Name]
				if !found || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.spanOut); err != nil {
					t.Errorf("%s: no span dump: %v", name, err)
				}
			}
		}
	}
}
