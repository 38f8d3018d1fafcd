package orchestrator

import (
	"io"

	"github.com/lumina-sim/lumina/internal/coverage"
)

// CoverageSchema versions the coverage.json layout for cross-run diffing
// tools; bump it when a field changes meaning or disappears.
const CoverageSchema = coverage.Schema

// WriteCoverage renders the coverage report as indented JSON (the
// coverage.json artifact). The rendering is canonical: sites appear in
// registry order and only covered transitions are listed, so same-seed
// runs produce byte-identical files at any engine worker count.
func (r *Report) WriteCoverage(w io.Writer) error {
	return r.Coverage.Write(w)
}
