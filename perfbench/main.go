// Command perfbench is the repository's benchmark. It runs the shipped
// binaries as child processes — cmd/pcpdad for the two service workloads,
// cmd/pcpscenario for the simulator workload — checks that their output is
// correct, and prints one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload update-closed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, measured by timing calls into each layer's
// public functions from this process and by reading the counters the
// daemon already exports (/stats, /proc/<pid>/{stat,io}). perfbench/run.sh
// builds the binaries and passes -bin and -work; README.md in this
// directory explains the workloads and metrics.
//
// With -spread N it instead runs itself N times on consecutive seeds and
// prints each metric's median and quartile spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its failed
// correctness checks.
type run struct {
	bin     string  // directory holding pcpdad and pcpscenario
	work    string  // scratch directory inside the checkout
	seed    int64   // workload seed
	seconds float64 // measured duration
	trace   bool    // per-layer run instead of end-to-end

	problems []string // failed correctness checks
}

// check records a failed correctness check; the run still completes and
// reports correct=false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	}
}

// note prints one human-readable line ahead of the result line.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// nproc is the load and worker parallelism: one connection or sim worker
// per CPU the process may run on.
var nproc = runtime.NumCPU()

func main() {
	var (
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the pcpdad and pcpscenario binaries")
		work     = flag.String("work", ".bench_build/run", "scratch directory for logs and reports")
		workload = flag.String("workload", "", "workload: update-closed | read90-closed | sim-catalog")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = per-layer run, 0 = end-to-end run")
		spread   = flag.Int("spread", 0, "run the workload this many times on consecutive seeds and print each metric's spread")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w := findWorkload(*workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(names, " | "))
		os.Exit(2)
	}
	r := &run{bin: *bin, work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *spread > 0 {
		if err := runSpread(os.Args[0], *spread, w.name, r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := w.run(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = len(r.problems) == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workloads lists every workload, in BENCHMARK.json's order, with the
// function that runs it.
var workloads = []workloadDef{
	{"update-closed", runUpdateClosed},
	{"read90-closed", runRead90Closed},
	{"sim-catalog", runSimCatalog},
}

// workloadDef is one workload and the function that runs it.
type workloadDef struct {
	name string
	run  func(*run) (*result, error)
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd is one run's end-to-end figures; README.md gives each
// workload's unit of work.
type endToEnd struct {
	setupS, throughput, p50Ms, tailMs, ok, cpuUs, rssMB float64
}

// endToEndUnits lists the end-to-end metrics with their units, in the
// order of endToEnd's fields.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_unit", "us"},
	{"peak_rss_mb", "MB"},
}

func (e endToEnd) metrics() map[string]metric {
	vals := []float64{e.setupS, e.throughput, e.p50Ms, e.tailMs, e.ok, e.cpuUs, e.rssMB}
	out := make(map[string]metric, len(vals))
	for i, nu := range endToEndUnits {
		out[nu[0]] = metric{Value: vals[i], Unit: nu[1]}
	}
	return out
}

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run reports all of them; a layer the workload does not use
// reports 0.
var perLayer = [][2]string{
	{"client.submit_us_p50", "us"},
	{"client.cpu_us_per_txn", "us"},
	{"client.retries_per_1k", "count"},
	{"wire.frames_per_txn", "count"},
	{"wire.bytes_per_txn", "bytes"},
	{"wire.encode_ns_per_txn", "ns"},
	{"wire.decode_ns_per_txn", "ns"},
	{"session.read_syscalls_per_txn", "count"},
	{"session.write_syscalls_per_txn", "count"},
	{"session.responses_per_flush", "count"},
	{"session.bytes_in_per_txn", "bytes"},
	{"session.bytes_out_per_txn", "bytes"},
	{"admission.ewma_wait_ms", "ms"},
	{"admission.stolen_per_1k", "count"},
	{"admission.shed_per_1k", "count"},
	{"admission.infeasible_per_1k", "count"},
	{"rtm.begin_us", "us"},
	{"rtm.read_us", "us"},
	{"rtm.write_us", "us"},
	{"rtm.commit_us", "us"},
	{"rtm.allocs_per_txn", "count"},
	{"rtm.lock_waits_per_1k", "count"},
	{"rtm.commit_waits_per_1k", "count"},
	{"rtm.aborts_per_1k", "count"},
	{"rtm.commit_ratio", "ratio"},
	{"rtm.clock_ticks_per_txn", "count"},
	{"lock.ops_per_txn", "count"},
	{"db.ro_begin_us", "us"},
	{"db.ro_read_us", "us"},
	{"db.ro_evictions_per_1k", "count"},
	{"history.check_ms", "ms"},
	{"history.drain_s", "s"},
	{"scenario.load_ms", "ms"},
	{"sim.2plhp_ms_per_cell", "ms"},
	{"sim.ccp_ms_per_cell", "ms"},
	{"sim.naiveda_ms_per_cell", "ms"},
	{"sim.occ_ms_per_cell", "ms"},
	{"sim.pcp_ms_per_cell", "ms"},
	{"sim.pcpda_ms_per_cell", "ms"},
	{"sim.pcpda-lc2_ms_per_cell", "ms"},
	{"sim.pip_ms_per_cell", "ms"},
	{"sim.rwpcp_ms_per_cell", "ms"},
	{"sim.allocs_per_cell", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// layerMetrics turns measured per-layer values into the full per-layer
// metric set; names missing from vals report 0. A measured name that is
// not declared (a simulator protocol added after this list was written)
// is dropped with a warning, because BENCHMARK.json fixes the metric set.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, nu := range perLayer {
		out[nu[0]] = metric{Value: vals[nu[0]], Unit: nu[1]}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			fmt.Fprintln(os.Stderr, "perfbench: warning: undeclared per-layer metric dropped:", name)
		}
	}
	return out
}
