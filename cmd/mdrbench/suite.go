package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// suiteConfig parameterizes the all-workloads mode.
type suiteConfig struct {
	seed    uint64
	seconds float64
	reps    int
	quick   bool
	out     string
}

// runner performs one run of one workload. The command uses childProcess,
// so every run starts with a fresh heap and its own peak RSS; tests
// substitute an in-process runner.
type runner func(w workload, c *runCtx) (runResult, error)

// childProcess re-executes this binary for one run and reads the result
// back from its detail line. The child has ended by the time it returns.
func childProcess(w workload, c *runCtx) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
	}
	if c.trace {
		args = append(args, "-trace", "1")
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output() // a run with failed operations exits 1 but still prints its result
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var res runResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return runResult{}, fmt.Errorf("%s: bad detail line: %w", w.name, err)
			}
			return res, nil
		}
	}
	if runErr == nil {
		runErr = fmt.Errorf("no result line")
	}
	return runResult{}, fmt.Errorf("%s: %w", w.name, runErr)
}

// sample is one end-to-end metric over a workload's untraced runs: each
// run's value (itself a median over that run's repetitions) and their
// summary.
type sample struct {
	timing
	Values []float64 `json:"values"`
}

// workloadReport is one workload's section of a report.
type workloadReport struct {
	Name      string             `json:"name"`
	Runs      int                `json:"runs"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Hash      string             `json:"hash"`
	EndToEnd  map[string]sample  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// suiteReport is the file -out writes and -diff reads.
type suiteReport struct {
	Env       environment      `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

// runSuite runs every workload cfg.reps times untraced and once traced,
// prints every metric by name with its unit, and exits non-zero when any
// operation failed.
func runSuite(cfg suiteConfig, run runner, stdout, stderr io.Writer) int {
	rep := suiteReport{Env: currentEnv(), Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick}
	fmt.Fprintf(stdout, "mdrbench: %s, nproc=%d GOMAXPROCS=%d commit=%s, seed=%d, %d×%gs per workload + 1 traced\n",
		rep.Env.Go, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Commit, cfg.seed, cfg.reps, cfg.seconds)
	failed := false
	for _, w := range workloads {
		wr, err := runWorkloadSuite(w, cfg, run)
		if err != nil {
			fmt.Fprintf(stderr, "mdrbench: %v\n", err)
			return 1
		}
		printWorkloadReport(stdout, wr)
		failed = failed || wr.Failed > 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	if cfg.out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mdrbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", cfg.out)
	}
	if failed {
		fmt.Fprintln(stderr, "mdrbench: operations failed")
		return 1
	}
	return 0
}

func runWorkloadSuite(w workload, cfg suiteConfig, run runner) (workloadReport, error) {
	wr := workloadReport{Name: w.name, EndToEnd: make(map[string]sample), PerLayer: make(map[string]float64)}
	values := make(map[string][]float64)
	fold := func(res runResult) {
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Failures = append(wr.Failures, res.Failures...)
		// Runs of one seed must agree on every exact output.
		wr.Attempted++
		if wr.Hash == "" {
			wr.Hash = res.Hash
		} else if res.Hash != wr.Hash {
			wr.Failed++
			wr.Failures = append(wr.Failures, fmt.Sprintf("run hash %s differs from the first run's %s", short(res.Hash), short(wr.Hash)))
		}
	}
	for i := 0; i < cfg.reps; i++ {
		res, err := run(w, &runCtx{seed: cfg.seed, seconds: cfg.seconds, quick: cfg.quick})
		if err != nil {
			return wr, err
		}
		fold(res)
		wr.Runs++
		for _, d := range endToEnd {
			values[d.Name] = append(values[d.Name], res.Metrics[d.Name])
		}
	}
	for _, d := range endToEnd {
		xs := values[d.Name]
		wr.EndToEnd[d.Name] = sample{timing: summarize(xs), Values: xs}
	}
	res, err := run(w, &runCtx{seed: cfg.seed, seconds: cfg.seconds, quick: cfg.quick, trace: true})
	if err != nil {
		return wr, err
	}
	fold(res)
	wr.PerLayer = res.Metrics
	return wr, nil
}

func printWorkloadReport(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "\n%s  runs=%d attempted=%d failed=%d hash=%s\n", wr.Name, wr.Runs, wr.Attempted, wr.Failed, short(wr.Hash))
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-30s %14.6g %-10s %s\n", d.Name, s.Median, d.Unit, s.timing)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
	}
}
