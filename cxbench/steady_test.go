package main

import "testing"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}
