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
	// Phase keeps only traces that spent time in the named phase
	// ("ba", "avss.share", "mpc.mul", ...).
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

// Traces searches the daemon's retained-trace ring. Daemons running
// with retention disabled answer ErrNotFound.
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

// Profiles lists the continuous profiler's on-disk capture ring. The
// profiler serves on the daemon's private pprof listener, not the API
// address — build this client against the -pprof-listen base URL.
func (c *Client) Profiles(ctx context.Context) (api.ProfileList, error) {
	var list api.ProfileList
	err := c.doUnversioned(ctx, "/profiles", &list)
	return list, err
}
