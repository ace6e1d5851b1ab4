// Command benchmark is the repository benchmark. It runs one named workload
// against the real loopback-TCP register stack inside this process, checks
// every result, prints each metric by name and unit, and ends with one JSON
// line:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Run it from the repository root through benchmark/run.sh, which builds it:
//
//	bash benchmark/run.sh --workload kv-uniform --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrument attached.
// --trace 1 is a separate run that attaches the layers' own instruments and
// times calls into each layer from outside, printing the per-layer metrics;
// it also repeats the workload untraced to report the tracing overhead, and
// measures the figures bound by CPU speed, which a shared host spreads too
// widely for a bound: the knee and Section 7's APSP.
// README.md defines every metric and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one named, unit-carrying measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	violations        []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
}

var workloads = map[string]func(options) (*report, error){
	"kv-uniform": func(o options) (*report, error) { return runKV(kvUniform, o) },
	"rr-zipf":    func(o options) (*report, error) { return runKV(rrZipf, o) },
	"kv-crash":   func(o options) (*report, error) { return runKV(kvCrash, o) },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: kv-uniform, rr-zipf or kv-crash")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if seconds < 4 {
		return fmt.Errorf("--seconds %d: need at least 4", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.seconds, o.traced = time.Duration(seconds)*time.Second, trace == 1
	if err := checkHost(); err != nil {
		return err
	}
	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, seconds, trace)

	rep, err := fn(o)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, v := range rep.violations {
		fmt.Println("VIOLATION:", v)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.violations) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(rep.violations) > 0 {
		return errors.New("correctness check failed")
	}
	return nil
}

// checkHost refuses load shapes that would oversubscribe the host: the load
// generator, both kv clients and every server share this process's cores.
func checkHost() error {
	ncpu, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if procs > ncpu {
		return fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d", procs, ncpu)
	}
	if kvClients > ncpu {
		return fmt.Errorf("%d kv clients exceed NumCPU=%d", kvClients, ncpu)
	}
	return nil
}

// commit reports the source revision: BENCH_COMMIT when the launcher found
// one, else the VCS stamp of the build, else "unknown".
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
