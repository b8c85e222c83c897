package serve

import (
	"encoding/json"
	"io"

	"dmac/internal/obs"
)

// FinalDump is the -metrics-out payload dmacserve writes on every exit path:
// the full metrics registry snapshot plus the final per-tenant SLO state, so
// post-mortems of forced or errored drains see the same numbers a live
// /metrics + /v1/slo scrape would have.
type FinalDump struct {
	Metrics obs.MetricsSnapshot `json:"metrics"`
	SLO     SLOSnapshot         `json:"slo"`
}

// WriteFinalDump writes the service's exit dump as indented JSON.
func (s *Service) WriteFinalDump(w io.Writer, metrics obs.MetricsSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(FinalDump{
		Metrics: metrics,
		SLO:     s.SLO(),
	})
}
