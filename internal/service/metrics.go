package service

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
)

// writeMetrics answers GET /metrics: the obs registry — the same objects
// /v1/stats reads — in the Prometheus text exposition format, after the
// one two-label series the registry does not model.
func (s *Service) writeMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Build identity: constant-1 gauge whose labels say what binary this
	// is — the series fleet-rollout dashboards join everything else on.
	goVersion, revision := buildIdentity()
	fmt.Fprintf(w, "# HELP mediatord_build_info Build metadata as labels on a constant 1.\n# TYPE mediatord_build_info gauge\nmediatord_build_info{go_version=%q,revision=%q} 1\n",
		goVersion, revision)
	s.obsReg.WritePrometheus(w)
}

// buildIdentity resolves the build's Go version and VCS revision once.
var buildIdentity = sync.OnceValues(func() (string, string) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
				if len(rev) > 12 {
					rev = rev[:12]
				}
			}
		}
	}
	return runtime.Version(), rev
})
