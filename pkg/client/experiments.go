package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"asyncmediator/api"
)

// Catalog lists the paper's runnable experiments (e1..e7).
func (c *Client) Catalog(ctx context.Context) ([]api.ExperimentInfo, error) {
	var resp api.CatalogResponse
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, nil, &resp)
	return resp.Experiments, err
}

// RunOptions tune a synchronous catalog run (zero values take the
// server's quick defaults).
type RunOptions struct {
	Trials   int
	Seed     *int64
	MaxSteps int
}

// RunExperiment runs a catalog experiment synchronously in the request
// (GET /v1/experiments/{name}) and returns its table. For large sweeps
// prefer CreateJob: the synchronous path holds the connection for the
// whole sweep.
func (c *Client) RunExperiment(ctx context.Context, name string, o RunOptions) (*api.Table, error) {
	q := url.Values{}
	if o.Trials > 0 {
		q.Set("trials", strconv.Itoa(o.Trials))
	}
	if o.Seed != nil {
		q.Set("seed", strconv.FormatInt(*o.Seed, 10))
	}
	if o.MaxSteps > 0 {
		q.Set("maxsteps", strconv.Itoa(o.MaxSteps))
	}
	var tab api.Table
	if err := c.do(ctx, http.MethodGet, "/v1/experiments/"+url.PathEscape(name), q, nil, &tab); err != nil {
		return nil, err
	}
	return &tab, nil
}

// CreateJob starts a persisted asynchronous experiment sweep on the
// farm's shared worker pool (POST /v1/jobs).
func (c *Client) CreateJob(ctx context.Context, req api.ExperimentRequest) (api.Handle, error) {
	var h api.Handle
	err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, req, &h)
	return h, err
}

// GetJob fetches one experiment-job snapshot.
func (c *Client) GetJob(ctx context.Context, id string) (api.ExperimentJobView, error) {
	var v api.ExperimentJobView
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, &v)
	return v, err
}

// WaitJob long-polls until the job reaches a terminal state or ctx
// expires.
func (c *Client) WaitJob(ctx context.Context, id string) (api.ExperimentJobView, error) {
	q := url.Values{"wait": {waitChunk.String()}}
	for {
		var v api.ExperimentJobView
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), q, nil, &v); err != nil {
			return api.ExperimentJobView{}, err
		}
		if v.State.Terminal() {
			return v, nil
		}
		if err := pausePoll(ctx); err != nil {
			return v, fmt.Errorf("client: waiting for job %s (state %s): %w", id, v.State, err)
		}
	}
}

// RunJob is the asynchronous end-to-end convenience: create the job and
// wait for its terminal snapshot.
func (c *Client) RunJob(ctx context.Context, req api.ExperimentRequest) (api.ExperimentJobView, error) {
	h, err := c.CreateJob(ctx, req)
	if err != nil {
		return api.ExperimentJobView{}, err
	}
	return c.WaitJob(ctx, h.ID)
}
