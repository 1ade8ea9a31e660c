package ledger

// The /api/compare document: two ledger records resolved by reference and
// run through the regression sentinel, wrapped with enough run identity for
// the dashboard's compare page to label both sides. Like History, the obs
// package treats it as opaque JSON.

// plane is the part of the observability plane (obs.Plane) that serves
// ledger documents.
type plane interface {
	SetRunsProvider(func() any)
	SetCompareProvider(func(refA, refB string) any)
}

// Serve attaches the ledger at dir to a plane's /api/runs and /api/compare
// endpoints. Each request re-reads the ledger, so records appended after the
// server starts show up without a restart; a failed read serves an empty
// history, and a failed comparison names its error in the document.
func Serve(p plane, dir string) error {
	store, err := Open(dir)
	if err != nil {
		return err
	}
	p.SetRunsProvider(func() any {
		h, err := BuildHistory(store, 200)
		if err != nil {
			return &History{Enabled: true, Dir: store.Dir()}
		}
		return h
	})
	p.SetCompareProvider(func(refA, refB string) any {
		c, err := BuildCompare(store, refA, refB, DiffOptions{})
		if err != nil {
			return &Compare{Enabled: true, Dir: store.Dir(), Error: err.Error()}
		}
		return c
	})
	return nil
}

// Compare is the full document.
type Compare struct {
	// Enabled reports whether a ledger is attached at all.
	Enabled bool `json:"enabled"`
	// Dir is the ledger directory being compared within.
	Dir string `json:"dir,omitempty"`
	// Error carries a resolution or validation failure (unknown reference,
	// ambiguous prefix, mismatched directions) instead of failing the HTTP
	// request: the page renders it next to the pre-filled inputs so the user
	// can correct the reference.
	Error string       `json:"error,omitempty"`
	A     *CompareSide `json:"a,omitempty"`
	B     *CompareSide `json:"b,omitempty"`
	// Report is the sentinel's verdict table, present when both sides loaded.
	Report *DiffReport `json:"report,omitempty"`
}

// CompareSide identifies one side of the comparison.
type CompareSide struct {
	// Ref is the reference as given (e.g. "latest~1", an ID prefix).
	Ref string `json:"ref"`
	// Run is the resolved record's history row.
	Run HistoryRun `json:"run"`
}

// BuildCompare resolves refA and refB against the store and diffs the two
// records. Reference or validation errors are reported inside the document
// (Compare.Error), not as a Go error; only the unexpected — an unreadable
// store — comes back as an error.
func BuildCompare(s *Store, refA, refB string, opts DiffOptions) (*Compare, error) {
	c := &Compare{Enabled: true, Dir: s.Dir()}
	side := func(ref string) (*CompareSide, *Record) {
		id, err := s.Resolve(ref)
		if err != nil {
			c.Error = err.Error()
			return nil, nil
		}
		rec, err := s.Get(id)
		if err != nil {
			c.Error = err.Error()
			return nil, nil
		}
		return &CompareSide{Ref: ref, Run: historyRow(id, rec)}, rec
	}
	sideA, recA := side(refA)
	if sideA == nil {
		return c, nil
	}
	sideB, recB := side(refB)
	if sideB == nil {
		return c, nil
	}
	c.A, c.B = sideA, sideB
	rep, err := Diff(recA, recB, opts)
	if err != nil {
		c.Error = err.Error()
		return c, nil
	}
	c.Report = rep
	return c, nil
}

// historyRow reduces one record to its history-table row, shared between
// BuildHistory and BuildCompare so both pages label runs identically.
func historyRow(id string, rec *Record) HistoryRun {
	short := id
	if len(short) > 12 {
		short = short[:12]
	}
	run := HistoryRun{
		ID: id, ShortID: short,
		Kind: rec.Kind, Scenario: rec.Scenario,
		Seeds: len(rec.Seeds), Points: len(rec.Points),
	}
	if rec.Manifest != nil {
		run.Tool = rec.Manifest.Tool
		run.Commit = shortCommit(rec.Manifest.VCSRevision)
		run.Dirty = rec.Manifest.VCSModified
	}
	return run
}
