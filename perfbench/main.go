// Command perfbench is kgedist's benchmark. It runs one workload (or all
// of them) with inputs generated from --seed, checks the program's outputs,
// and prints one row of metrics per workload followed by a JSON result line.
//
//	bash perfbench/run.sh --workload train-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a user sees. With
// --trace 1 it reports per-layer metrics instead: spans around the
// benchmark's own calls into each layer's public functions, the program's
// counters, and timed replays of layer functions on the workload's inputs.
// See README.md for the workloads and the meaning of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 3

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, every workload alike.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"accuracy", "fraction"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"kg.generate_s", "s"},
	{"transport.connect_s", "s"},
	{"core.train_call_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.train_loss_final", "loss"},
	{"core.mrr", "fraction"},
	{"core.virtual_train_s", "s"},
	{"core.drs_switch_epoch", "epoch"},
	{"core.p1_triples_per_s", "1/s"},
	{"trace.overhead_s", "s"},
	{"transport.rank0.send_calls", "count"},
	{"transport.rank0.sent_bytes", "B"},
	{"transport.rank0.send_s", "s"},
	{"transport.rank0.recv_wait_s", "s"},
	{"transport.rank0.rendezvous_wait_s", "s"},
	{"transport.rank1.send_calls", "count"},
	{"transport.rank1.sent_bytes", "B"},
	{"transport.rank1.send_s", "s"},
	{"transport.rank1.recv_wait_s", "s"},
	{"transport.rank1.rendezvous_wait_s", "s"},
	{"mpi.comm_bytes", "B"},
	{"mpi.virtual_comm_s", "s"},
	{"mpi.relation_comm_bytes", "B"},
	{"mpi.allreduce_s", "s"},
	{"mpi.allgather_s", "s"},
	{"mpi.est_busy_s", "s"},
	{"grad.nonzero_rows_per_batch", "rows"},
	{"grad.rs_drop_frac", "fraction"},
	{"grad.quantize_ns_per_row", "ns"},
	{"grad.decode_ns_per_row", "ns"},
	{"grad.sparse_cycle_ns_per_row", "ns"},
	{"grad.est_busy_s", "s"},
	{"model.score_ns", "ns"},
	{"model.grad_ns", "ns"},
	{"model.select_hardest_ns", "ns"},
	{"model.est_busy_s", "s"},
	{"opt.apply_ns_per_row", "ns"},
	{"opt.est_busy_s", "s"},
	{"partition.remote_row_frac", "fraction"},
	{"partition.cut_ratio", "fraction"},
	{"partition.max_entity_shard", "rows"},
	{"partition.build_s", "s"},
	{"partition.est_busy_s", "s"},
	{"eval.final_s", "s"},
	{"eval.est_busy_s", "s"},
	{"serve.open_s", "s"},
	{"binpack.build_s", "s"},
	{"serve.reload_s", "s"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.batch_size_mean", "queries"},
	{"serve.exact_server_mean_ms", "ms"},
	{"serve.exact_server_p99_ms", "ms"},
	{"serve.sweep_ms", "ms"},
	{"serve.approx_server_mean_ms", "ms"},
	{"serve.approx_candidates_per_query", "count"},
	{"serve.approx_rescored_per_query", "count"},
	{"binpack.search_us", "us"},
	{"client.exact_p50_ms", "ms"},
	{"client.exact_p99_ms", "ms"},
	{"client.approx_p50_ms", "ms"},
	{"client.approx_p99_ms", "ms"},
	{"client.tail_ms", "ms"},
	{"client.tail_percentile", "percentile"},
	{"client.slo_goodput", "fraction"},
	{"client.lateness_p99_ms", "ms"},
	{"client.sent", "count"},
	{"client.failed", "count"},
	{"client.exact_sent", "count"},
	{"client.exact_ok", "count"},
	{"client.exact_failed", "count"},
	{"client.approx_sent", "count"},
	{"client.approx_ok", "count"},
	{"client.approx_failed", "count"},
}

// runCtx is what every workload gets: its seed, the measurement window,
// whether to trace, and where it may write files.
type runCtx struct {
	seed    uint64
	window  time.Duration
	trace   bool
	out     string
	started time.Time
	tr      *tracer // nil unless tracing
}

// repeatSetup builds the workload's set-up setupReps times and returns the
// median duration. The first build is timed from process start. f keeps
// what the last build (last == true) made.
func (rc *runCtx) repeatSetup(f func(parent int, last bool) error) (float64, error) {
	var durs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = rc.started
		}
		id, end := rc.tr.begin("setup", 0)
		err := f(id, i == setupReps-1)
		end()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return median(durs), nil
}

// report is what a workload run produced.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed correctness check.
func (r *report) fail(err error) { r.failures = append(r.failures, err.Error()) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"train-paper", "train-dense-tcp", "train-partitioned", "serve-zipf"}

func runWorkload(rc *runCtx, name string) (*report, error) {
	if name == "serve-zipf" {
		return runServe(rc)
	}
	spec, ok := trainSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
	}
	return runTrain(rc, spec)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// finish turns a report into the printed row and result.
func finish(rc *runCtx, rep *report) (result, error) {
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		rep.failures = append(rep.failures, "no operation completed")
	}
	if len(rep.failures) > 0 {
		return res, nil
	}
	res.Correct = true
	defs, vals := endToEnd, rep.e2e
	if rc.trace {
		defs, vals = perLayer, rep.layer
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		vals["peak_rss_mb"] = rss
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printRow prints a result's metrics as one human-readable row.
func printRow(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s correct=%t attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(&b, " %s=%.6g %s", k, m.Value, m.Unit)
	}
	fmt.Println(b.String())
}

// runAll runs every workload in a child process of its own, so peak RSS is
// per workload, passes their rows through, and merges their results with
// metrics named <workload>.<metric>.
func runAll(args []string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(args, "--workload", name)...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return all, fmt.Errorf("workload %s: %v (%v)", name, err, runErr)
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	return all, nil
}

func main() {
	started := time.Now()
	var (
		workload = flag.String("workload", "", "workload to run, or all: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		out      = flag.String("out", ".bench_build", "directory for checkpoints and span files")
	)
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if *workload == "all" {
		args := []string{"--seed", strconv.FormatUint(*seed, 10), "--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(*trace), "--out", *out}
		res, err := runAll(args)
		emit(res, err)
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rc := &runCtx{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		out:     *out,
		started: started,
	}
	if rc.trace {
		rc.tr = newTracer(started)
	}
	rep, err := runWorkload(rc, *workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, f)
	}
	res, err := finish(rc, rep)
	if err == nil && rc.trace {
		err = rc.tr.writeJSONL(filepath.Join(rc.out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed)))
	}
	if err == nil {
		printRow(*workload, res)
	}
	emit(res, err)
}

// emit prints the result line and exits non-zero unless the run was correct.
func emit(res result, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
