package main

import (
	"encoding/json"
	"os"
)

// span is one timed call the harness made into a layer's public API.
// Parent indexes the enclosing span in the same recorder (-1 at the root).
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// recorder keeps spans in memory until the run ends. It is driven by the
// harness goroutine only, and a nil recorder is tracing switched off: every
// method is then a no-op beyond running the wrapped call, so workloads
// carry one code path for traced and untraced runs.
type recorder struct {
	workload string
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder { return &recorder{workload: workload} }

// do runs fn inside a span called name.
func (r *recorder) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.begin(name)
	fn()
	r.end(id)
}

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, StartNs: int64(now()), Parent: parent, Workload: r.workload})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].EndNs = int64(now())
	r.open = r.open[:len(r.open)-1]
}

// durations returns the seconds of every span called name, in call order.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// total is the summed duration of the spans called name, in seconds.
func (r *recorder) total(name string) float64 {
	t := 0.0
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

// selfTimes returns, per span name, duration minus the part child spans
// cover — the time the layer spent in its own code.
func (r *recorder) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	if r == nil {
		return self
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range r.spans {
		self[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return self
}

// spanFile is what -spans writes: the raw spans plus the self-time
// roll-up, so a reader need not rebuild the tree to see where time went.
type spanFile struct {
	Env   environment        `json:"env"`
	Self  map[string]float64 `json:"self_seconds"`
	Spans []span             `json:"spans"`
}

func (r *recorder) write(path string) error {
	f := spanFile{Env: currentEnv(), Self: r.selfTimes(), Spans: r.spans}
	blob, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
