package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestParallelReplayPoolBackToBack: back-to-back passes from two goroutines
// with alternating shard counts recycle pool jobs while helpers may still
// hold stale queue entries of the previous pass. Every pass must stay
// byte-identical to SequentialReplay; under -race this also proves no
// helper reads a job that init is rewriting.
func TestParallelReplayPoolBackToBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // spawn 7 helpers
	c, stream := cancelFixture(t, 4096)
	want, wantCur := SequentialReplay(c, stream)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				shards := 2
				if i%2 == 1 {
					shards = 16
				}
				if st, cur := ParallelReplay(c, stream, shards); st != want || cur != wantCur {
					errs <- "pass diverged from SequentialReplay"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
