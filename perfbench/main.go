// Command perfbench is the repository's end-to-end benchmark: a
// single-process, closed-loop load generator with one client goroutine
// that drives the site API and the generated collabdoc proxies over an
// in-process MemNetwork on the Loopback link. README.md explains the
// workloads, the metrics and the measurements behind the design.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload remote-invoke --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale sizes a workload's inputs and its set-up; the smoke test runs the
// same code at a tiny scale.
type scale struct {
	sections        int // remote-invoke: sections in the document
	sectionBytes    int // remote-invoke and offline-edit: section text size
	docs            int // mobile-open: documents in the pool
	docSections     int // mobile-open: sections per document
	docBytes        int // mobile-open: section text size
	offlineSections int // offline-edit: sections in the document
	reads           int // offline-edit: local reads per op
	setups          int // set-ups per run; setup_s is their median
	walRoot         string
}

var fullScale = scale{
	sections:        4096,
	sectionBytes:    256,
	docs:            64,
	docSections:     32,
	docBytes:        1024,
	offlineSections: 32,
	reads:           64,
	setups:          5,
}

// spec describes one workload.
type spec struct {
	build func(sc scale, seed int64, tr *tracer) (workload, error)
	// Warm-up runs whole cycles until at least warmCycles have run and
	// the client has sent warmCalls RMI calls. RMI call ids are varints:
	// once past 1<<14 they stay three bytes long for the next two million
	// calls, so every timed-phase frame has the same size and wire counts
	// per op repeat exactly.
	warmCycles int
	warmCalls  int
}

var workloads = map[string]spec{
	"remote-invoke": {build: newRemoteInvoke, warmCycles: 1, warmCalls: 1 << 14},
	"mobile-open":   {build: newMobileOpen, warmCycles: 1, warmCalls: 1 << 14},
	"offline-edit":  {build: newOfflineEdit, warmCycles: 8},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spanOut  string // where a traced run writes its spans
	scale    scale
}

func main() {
	cfg := config{scale: fullScale}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "remote-invoke, mobile-open or offline-edit")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.scale.walRoot, "wal-dir", filepath.Join(".bench_build", "perfbench-wal"),
		"directory under which durable sites keep their write-ahead logs")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.spanOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", cfg.workload, cfg.seed))

	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it and prints the environment, a
// readable table and the result line to out. It reports whether every op
// and the end-of-run check passed; an error means no result was printed.
func run(cfg config, out io.Writer) (bool, error) {
	sp, ok := workloads[cfg.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return false, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.scale.walRoot, 0o755); err != nil {
		return false, fmt.Errorf("wal dir: %w", err)
	}
	env := environment(cfg)
	envLine, err := json.Marshal(env)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "env %s\n", envLine)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Every set-up starts a fresh world from its own seed; the last one is
	// measured.
	rng := rand.New(rand.NewSource(cfg.seed))
	setups := make([]float64, cfg.scale.setups)
	var w workload
	next := 0
	for k := range setups {
		start := time.Now()
		w, err = sp.build(cfg.scale, rng.Int63(), tr)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		if next, err = warm(w, sp.warmCycles, sp.warmCalls); err != nil {
			w.world().close()
			return false, err
		}
		setups[k] = time.Since(start).Seconds()
		if k < len(setups)-1 {
			if err := w.world().close(); err != nil {
				return false, fmt.Errorf("tear down set-up %d: %w", k, err)
			}
		}
	}
	defer w.world().close()

	p := measure(w, tr, next, time.Duration(cfg.seconds)*time.Second, cfg.seed)
	verifyErr := w.verify()
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", p.failed, p.ops, p.firstErr)
	}
	if verifyErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: end-of-run check: %v\n", verifyErr)
	}
	correct := p.failed == 0 && verifyErr == nil

	var ms []metric
	if cfg.trace {
		ms = perLayer(p, tr, w.world())
		if err := tr.write(cfg.spanOut); err != nil {
			return false, err
		}
	} else {
		ms = endToEnd(p, median(setups))
	}
	failed := p.failed
	if verifyErr != nil && failed == 0 {
		failed = 1
	}
	fmt.Fprintf(out, "%-32s %16s  %s\n", cfg.workload, "value", "unit")
	for _, m := range ms {
		fmt.Fprintf(out, "%-32s %16.4f  %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "%-32s %16.4f  %s\n", "error_ratio", float64(failed)/float64(p.ops), "1")
	fmt.Fprintf(out, "%-32s %16d  %s\n", "windows", len(p.windows), "count")

	res := result{Correct: correct, Attempted: p.ops, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return correct, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// environment stamps a result with what it was measured on.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"link":       link.Name,
		"wal_fs":     fsType(cfg.scale.walRoot),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: fsync cost, and so the WAL's
// share of offline-edit, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlay"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
