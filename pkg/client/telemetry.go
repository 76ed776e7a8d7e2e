package client

import (
	"context"
	"net/http"
	"net/url"
	"strconv"

	"asyncmediator/api"
)

// TracesOptions filter GET /v1/traces — the retained-trace search.
type TracesOptions struct {
	// Variant matches the play's theorem variant exactly ("" for all).
	Variant string
	// Phase keeps only traces that spent time in the named phase: "avss",
	// "open" or "ba" (protocol messages are classified by their body).
	Phase string
	// MinMS keeps traces at or above this duration: the named phase's
	// duration when Phase is set, end-to-end otherwise.
	MinMS float64
	// Since keeps traces finished at or after this unix-millisecond
	// instant.
	Since int64
	// Cursor resumes pagination (the previous page's NextCursor).
	Cursor int64
	// Limit caps the page (0: server default).
	Limit int
}

// Traces searches the daemon's retained-trace ring: the newest 4,096
// finished plays' traces, at most 64 MiB of them.
func (c *Client) Traces(ctx context.Context, o TracesOptions) (api.TracePage, error) {
	q := url.Values{}
	if o.Variant != "" {
		q.Set("variant", o.Variant)
	}
	if o.Phase != "" {
		q.Set("phase", o.Phase)
	}
	if o.MinMS > 0 {
		q.Set("min_ms", strconv.FormatFloat(o.MinMS, 'f', -1, 64))
	}
	if o.Since > 0 {
		q.Set("since", strconv.FormatInt(o.Since, 10))
	}
	if o.Cursor > 0 {
		q.Set("cursor", strconv.FormatInt(o.Cursor, 10))
	}
	if o.Limit > 0 {
		q.Set("limit", strconv.Itoa(o.Limit))
	}
	var page api.TracePage
	err := c.do(ctx, http.MethodGet, "/v1/traces", q, nil, &page)
	return page, err
}

// SLO fetches the burn-rate state of every configured SLO objective.
// Daemons running without objectives answer ErrNotFound.
func (c *Client) SLO(ctx context.Context) (api.SLOView, error) {
	var v api.SLOView
	err := c.do(ctx, http.MethodGet, "/v1/slo", nil, nil, &v)
	return v, err
}
