package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rix/internal/sample"
	"rix/internal/stats"
)

// Suite is one registered spec's rendered run: its collector's tables,
// under the id and description of the spec that ran.
type Suite struct {
	ID          string
	Description string
	Tables      []*stats.Table
}

// RunSuite looks the registered spec id up, executes it on the engine's
// workloads and renders its tables. A non-nil sampling runs the spec's
// sampled variant instead (Sampled): the same matrix and collector with
// every cell through the interval-sampling engine, under the variant's
// id and description, so sampled estimates are never mistaken for full
// detail.
func (e *Engine) RunSuite(ctx context.Context, id string, sampling *sample.Sampling) (Suite, error) {
	sp, ok := Lookup(id)
	if !ok {
		return Suite{}, fmt.Errorf("runner: unknown spec %q (registered: %s)", id, strings.Join(IDs(), ", "))
	}
	if sampling != nil {
		v := Sampled(sp, *sampling)
		sp = &v
	}
	rs, err := e.Gather(ctx, sp)
	if err != nil {
		return Suite{}, err
	}
	tables, err := sp.Collect(rs)
	if err != nil {
		return Suite{}, err
	}
	return Suite{ID: sp.ID, Description: sp.Description, Tables: tables}, nil
}

// jsonTable / jsonSuite shape the JSON document; one suite per spec run.
type jsonTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

type jsonSuite struct {
	ID          string      `json:"id"`
	Description string      `json:"description"`
	Tables      []jsonTable `json:"tables"`
}

// WriteJSON writes suites as one two-space indented JSON array: the
// format of `rixbench -json` and of the committed figure goldens.
func WriteJSON(w io.Writer, suites []Suite) error {
	out := make([]jsonSuite, len(suites))
	for i, s := range suites {
		tables := make([]jsonTable, len(s.Tables))
		for j, t := range s.Tables {
			tables[j] = jsonTable{Title: t.Title, Header: t.Header(), Rows: t.Rows(), Notes: t.Notes()}
		}
		out[i] = jsonSuite{ID: s.ID, Description: s.Description, Tables: tables}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
