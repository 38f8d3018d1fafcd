package orchestrator

import "io"

// WriteCoverage renders the coverage report as indented JSON (the
// coverage.json artifact). The rendering is canonical: sites appear in
// registry order and only covered transitions are listed, so same-seed
// runs produce byte-identical files at any engine worker count.
func (r *Report) WriteCoverage(w io.Writer) error {
	return r.Coverage.Write(w)
}
