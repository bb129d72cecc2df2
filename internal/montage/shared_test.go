package montage_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datamgmt"
	"repro/internal/dax"
	"repro/internal/exec"
	"repro/internal/montage"
)

// TestSharedWorkflowConcurrentReaders runs the readers of one cached
// workflow -- DAX serialization and simulated runs in every
// data-management mode -- from several goroutines at once, the way the
// service shares a cache entry between requests.  The file lists a
// finalized workflow hands out are its own compiled slices, so under
// -race this proves every reader only reads them; each goroutine must
// also reproduce the serial output exactly.
func TestSharedWorkflowConcurrentReaders(t *testing.T) {
	wf, err := montage.Cached(montage.OneDegree())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dax.Write(&want, wf); err != nil {
		t.Fatal(err)
	}
	modes := datamgmt.Modes()
	base := make([]exec.Metrics, len(modes))
	for i, mode := range modes {
		if base[i], err = exec.Run(wf, exec.Config{Mode: mode, Processors: 8}); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 6
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got bytes.Buffer
			if err := dax.Write(&got, wf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				errs <- fmt.Errorf("worker %d: DAX output differs from the serial write", g)
				return
			}
			i := g % len(modes)
			m, err := exec.Run(wf, exec.Config{Mode: modes[i], Processors: 8})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(m, base[i]) {
				errs <- fmt.Errorf("worker %d: %v run differs from the serial run", g, modes[i])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
