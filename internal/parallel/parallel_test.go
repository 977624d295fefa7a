package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		calls := make([]atomic.Int32, n)
		For(n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d: f(%d) called %d times", n, i, c)
			}
		}
	}
}
