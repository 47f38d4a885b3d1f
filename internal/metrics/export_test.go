package metrics

// AddN inserts x with multiplicity n (used for weighted counts).
func (e *ECDF) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		e.xs = append(e.xs, x)
	}
	e.sorted = false
}
