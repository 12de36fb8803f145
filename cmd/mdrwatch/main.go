// mdrwatch scrapes a live mesh's observability plane and reports cluster
// convergence: it polls every node's /readyz and /peers endpoints until
// the whole mesh is ready (exit 0) or the deadline passes (exit 1), then
// renders a per-node health table. Point it at the manifest an mdrnode
// process writes:
//
//	mdrnode -topo net1 -fabric udp -loss 0.2 -http 127.0.0.1:0 \
//	        -obs-manifest obs.txt -linger 10 &
//	mdrwatch -manifest obs.txt -timeout 30
//
// or list the base URLs directly:
//
//	mdrwatch -targets http://127.0.0.1:40001,http://127.0.0.1:40002
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"minroute/internal/obs"
)

func main() {
	var (
		manifest = flag.String("manifest", "", "file with one observability base URL per line (written by mdrnode -obs-manifest)")
		targets  = flag.String("targets", "", "comma-separated observability base URLs (alternative to -manifest)")
		interval = flag.Float64("interval", 0.1, "poll period, seconds")
		timeout  = flag.Float64("timeout", 30, "give up after this many seconds (counted in polls)")
	)
	flag.Parse()

	urls, err := resolveTargets(*manifest, *targets)
	if err == nil {
		err = runWatch(os.Stdout, urls, *interval, *timeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrwatch: %v\n", err)
		os.Exit(1)
	}
}

// resolveTargets turns the -manifest/-targets flags into the list of base
// URLs to scrape.
func resolveTargets(manifest, targets string) ([]string, error) {
	var urls []string
	if manifest != "" {
		raw, err := os.ReadFile(manifest)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			// A data-plane mesh writes "<url> <data-addr>" lines; the
			// observability URL is always the first column.
			if fields := strings.Fields(line); len(fields) > 0 {
				urls = append(urls, fields[0])
			}
		}
	}
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			urls = append(urls, t)
		}
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("no targets: pass -manifest or -targets (see -help)")
	}
	return urls, nil
}

// row is one node's scrape result for a poll round.
type row struct {
	url   string
	ready obs.Readiness
	peers obs.PeersDoc
	// flows is the node's data-plane snapshot, nil when the node runs
	// without a forwarder (/flows answers 404 there).
	flows *obs.FlowsDoc
	err   error
}

// retransmits sums the node's per-link ARQ retransmit counters.
func (r row) retransmits() float64 {
	var total float64
	for _, p := range r.peers.Peers {
		total += p.Retransmits
	}
	return total
}

// maxRTO is the node's worst current retransmission timeout.
func (r row) maxRTO() float64 {
	var worst float64
	for _, p := range r.peers.Peers {
		if p.RTO > worst {
			worst = p.RTO
		}
	}
	return worst
}

// probe scrapes one node's /readyz, /peers, and (when present) /flows.
func probe(c *http.Client, url string) row {
	r := row{url: url}
	if r.err = fetchJSON(c, url+"/readyz", &r.ready); r.err != nil {
		return r
	}
	if r.err = fetchJSON(c, url+"/peers", &r.peers); r.err != nil {
		return r
	}
	var fd obs.FlowsDoc
	if status, err := fetchJSONStatus(c, url+"/flows", &fd); err == nil && status == http.StatusOK {
		r.flows = &fd
	}
	return r
}

// fetchJSON GETs url and decodes the JSON body. A non-2xx status is not
// an error here: /readyz deliberately answers 503 while converging, and
// its body still carries the document.
func fetchJSON(c *http.Client, url string, v any) error {
	_, err := fetchJSONStatus(c, url, v)
	return err
}

// fetchJSONStatus is fetchJSON exposing the status code, for endpoints
// like /flows where 404 is a meaningful "feature not enabled" answer.
func fetchJSONStatus(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// runWatch polls every target until the whole mesh reports ready or the
// poll-counted deadline passes, then renders the final table. The
// deadline is counted in polls, not wall timestamps, keeping the watcher
// off time.Now (see the nowall lint check).
func runWatch(w io.Writer, urls []string, interval, timeout float64) error {
	if interval <= 0 {
		interval = 0.1
	}
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer c.CloseIdleConnections()

	maxPolls := int(timeout / interval)
	if maxPolls < 1 {
		maxPolls = 1
	}
	rows := make([]row, len(urls))
	lastReady := -1
	for poll := 0; ; poll++ {
		ready := 0
		for i, u := range urls {
			rows[i] = probe(c, u)
			if rows[i].err == nil && rows[i].ready.Ready {
				ready++
			}
		}
		if ready != lastReady {
			fmt.Fprintf(w, "poll %d: %d/%d nodes ready\n", poll, ready, len(urls))
			lastReady = ready
		}
		if ready == len(urls) {
			render(w, rows)
			return nil
		}
		if poll >= maxPolls {
			render(w, rows)
			return fmt.Errorf("mesh not converged after %d polls (%gs): %d/%d nodes ready", poll, timeout, ready, len(urls))
		}
		time.Sleep(time.Duration(interval * float64(time.Second)))
	}
}

// render writes the per-node health table: readiness, phase, peering,
// drained windows, stability streak, ARQ health, and the node's own
// state hash (each node hashes its own routing table, so rows differ).
func render(w io.Writer, rows []row) {
	sorted := append([]row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].peers.ID < sorted[j].peers.ID })
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tREADY\tPASSIVE\tPEERS\tOUT\tSTREAK\tRETX\tRTOMAX\tHASH")
	for _, r := range sorted {
		if r.err != nil {
			fmt.Fprintf(tw, "?\t-\t-\t-\t-\t-\t-\t-\t%s: %v\n", r.url, r.err)
			continue
		}
		hash := r.ready.Hash
		if len(hash) > 8 {
			hash = hash[:8]
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d/%d\t%d\t%d/%d\t%g\t%.4f\t%s\n",
			r.peers.ID, yn(r.ready.Ready), yn(r.ready.Passive),
			r.ready.Peers, r.ready.MinPeers, r.ready.Outstanding,
			r.ready.Streak, r.ready.StablePolls,
			r.retransmits(), r.maxRTO(), hash)
	}
	tw.Flush()
	renderData(w, sorted)
}

// renderData writes the data-plane tables for nodes exposing /flows: the
// per-node forwarding counters and the live weighted-split table — the
// observed next-hop fraction of each destination's traffic against the
// phi weight the node's table wants.
func renderData(w io.Writer, sorted []row) {
	any := false
	for _, r := range sorted {
		if r.flows != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nNODE\tORIGIN\tFWD\tDELIV\tLOOPED\tTTLX\tNOROUTE\tFLOWS")
	for _, r := range sorted {
		if r.flows == nil {
			continue
		}
		d := r.flows.Data
		fmt.Fprintf(tw, "%d\t%g\t%g\t%g\t%g\t%g\t%g\t%d\n",
			r.flows.ID, d.Origin, d.Forwarded, d.Delivered,
			d.Looped, d.TTLExpired, d.DropNoRoute, len(d.Flows))
	}
	tw.Flush()
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nNODE\tDST\tVIA\tPKTS\tGOT\tWANT")
	for _, r := range sorted {
		if r.flows == nil {
			continue
		}
		for _, s := range r.flows.Data.Splits {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.4f\t%.4f\n",
				r.flows.ID, s.Dst, s.Hop, s.Packets, s.Got, s.Want)
		}
	}
	tw.Flush()
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
