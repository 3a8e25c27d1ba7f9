package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) over one or more
// registries. A broker process serves its fabric-wide registry plus one
// registry per wire listener, distinguished by a label set, from a
// single /metrics endpoint — the off-broker half of the observability
// plane the paper delegates to CloudWatch/Grafana.

// PromSource couples a registry with the label set its metrics carry,
// e.g. `broker="1"`. Empty labels are fine (fabric-wide metrics).
type PromSource struct {
	Labels string
	Reg    *Registry
}

// PromName maps an internal dotted metric name to a legal Prometheus
// metric name: an octopus_ prefix, with every character outside
// [a-zA-Z0-9_:] rewritten to '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 8)
	b.WriteString("octopus_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label block, merging the source labels with an
// optional extra pair (le).
func promLabels(base, extra string) string {
	switch {
	case base == "" && extra == "":
		return ""
	case base == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + base + "}"
	}
	return "{" + base + "," + extra + "}"
}

// typeOnce emits the # TYPE header the first time a metric name is
// seen across sources; repeating it per source would be malformed.
func typeOnce(w io.Writer, seen map[string]bool, name, kind string) {
	if seen[name] {
		return
	}
	seen[name] = true
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// WritePrometheus renders every metric of every source in Prometheus
// text format. Counters and gauges map directly; bucketed histograms
// emit cumulative le-buckets (non-empty bounds only, plus +Inf).
func WritePrometheus(w io.Writer, srcs ...PromSource) {
	seen := make(map[string]bool)
	exports := make([]Export, len(srcs))
	for i, s := range srcs {
		exports[i] = s.Reg.Export()
	}
	for i, s := range srcs {
		ex := &exports[i]
		for _, c := range ex.Counters {
			n := PromName(c.Name)
			typeOnce(w, seen, n, "counter")
			fmt.Fprintf(w, "%s%s %d\n", n, promLabels(s.Labels, ""), c.Value)
		}
		for _, g := range ex.Gauges {
			n := PromName(g.Name)
			typeOnce(w, seen, n, "gauge")
			fmt.Fprintf(w, "%s%s %d\n", n, promLabels(s.Labels, ""), g.Value)
		}
		for _, h := range ex.Hists {
			n := PromName(h.Name)
			typeOnce(w, seen, n, "histogram")
			var cum int64
			for b := 0; b < NumBuckets; b++ {
				if h.Snap.Buckets[b] == 0 {
					continue
				}
				cum += h.Snap.Buckets[b]
				_, hi := BucketBounds(b)
				fmt.Fprintf(w, "%s_bucket%s %d\n", n, promLabels(s.Labels, fmt.Sprintf(`le="%d"`, hi)), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", n, promLabels(s.Labels, `le="+Inf"`), h.Snap.Count)
			fmt.Fprintf(w, "%s_sum%s %d\n", n, promLabels(s.Labels, ""), h.Snap.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", n, promLabels(s.Labels, ""), h.Snap.Count)
		}
	}
}

// Handler serves WritePrometheus over HTTP. get is called per scrape so
// the source list can track brokers joining or leaving.
func Handler(get func() []PromSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, get()...)
	})
}
