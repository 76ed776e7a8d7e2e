package api

// ExperimentInfo is one entry of the experiment catalog (GET
// /v1/experiments): a runnable table from the paper's evaluation suite.
type ExperimentInfo struct {
	// ID is the catalog identifier ("e1".."e7").
	ID string `json:"id"`
	// Title is the one-line claim the experiment regenerates.
	Title string `json:"title"`
}

// CatalogResponse is the body of GET /v1/experiments.
type CatalogResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// ExperimentRequest is the body of POST /v1/jobs: which catalog
// experiment to run asynchronously and with what options. Zero values
// take the server's quick defaults.
type ExperimentRequest struct {
	// Experiment is the catalog id ("e1".."e7").
	Experiment string `json:"experiment"`
	// Trials per Monte-Carlo estimate (0: quick default).
	Trials int `json:"trials,omitempty"`
	// Seed is the sweep's base seed (nil: quick default).
	Seed *int64 `json:"seed,omitempty"`
	// MaxSteps bounds each simulated run (0: quick default).
	MaxSteps int `json:"max_steps,omitempty"`
}

// CellError is one failed grid point of a sweep; the rest of the sweep
// still runs.
type CellError struct {
	// Cell names the grid point, e.g. "k=1,t=0,n=5".
	Cell string `json:"cell"`
	// Err is the failure message.
	Err string `json:"error"`
}

// Table is one rendered experiment result: the payload of a done
// experiment job.
type Table struct {
	// ID is the experiment id ("e1".."e7").
	ID     string     `json:"id,omitempty"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Errors collects per-cell failures; the corresponding rows carry an
	// "error" status.
	Errors []CellError `json:"errors,omitempty"`
}

// ExperimentJobView is a snapshot of one asynchronous experiment job —
// the body of GET /v1/jobs/{id} and the payload of terminal experiment
// events. Table is present only in the done state.
type ExperimentJobView struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	State      State  `json:"state"`
	Trials     int    `json:"trials"`
	Seed0      int64  `json:"seed0"`
	MaxSteps   int    `json:"max_steps"`
	Table      *Table `json:"table,omitempty"`
	// DurationSeconds is the wall time of the sweep (terminal states only).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Error           string  `json:"error,omitempty"`
}
