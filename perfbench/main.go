// Command perfbench is the repository's served benchmark. One load
// generator process drives a real eh-server over loopback HTTP through one
// named workload, checks every answer against an oracle, and prints the
// end-to-end metrics. With -trace 1 it runs the same workload untraced
// against the server and then replays the same seeded request stream in
// process, timing the calls into each module's public functions, and
// prints the per-layer metrics instead. registry.json records the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
//
// Usage, from the repository root (run.sh builds eh-server and this
// command first):
//
//	bash perfbench/run.sh --workload count --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: count, list or point")
	seed := flag.Int64("seed", 1, "workload seed; the graph and every request stream derive from it")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	serverBin := flag.String("server", "", "path of the eh-server binary to drive")
	work := flag.String("work", "", "directory for snapshots, WALs, server logs and span files")
	smoke := flag.Bool("smoke", false, "self-test: run every workload briefly and check that injected faults are counted")
	flag.Parse()
	// A ceiling for the heap while the load generator's collector is off
	// during a measured window (see runner.measure).
	debug.SetMemoryLimit(1 << 30)

	if *serverBin == "" || *work == "" {
		fail(fmt.Errorf("-server and -work are required (run through perfbench/run.sh)"))
	}
	if *smoke {
		if err := runSmoke(*serverBin, *work, *seed); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	fmt.Printf("machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	r, err := newRunner(w, *seed, *seconds, *serverBin, dir)
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	var res *result
	if *traced == 1 {
		res, err = r.tracedRun(filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed)))
	} else {
		res, err = r.endToEnd()
	}
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the CPU model name for the machine fingerprint line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
