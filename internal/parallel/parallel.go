// Package parallel runs independent indexed work on every core.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls f(0) … f(n-1) on GOMAXPROCS goroutines, each taking the
// next index as it finishes one, and returns when all are done. The
// calls may run in any order; a caller that needs input order writes
// f(i)'s result to slot i.
func For(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
