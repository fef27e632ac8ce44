package itemset

import (
	"fmt"
	"sync"
)

// Hook is the per-worker observability callback Fan threads through to the
// tracer: hook(w) is invoked as worker w starts and the func it returns as
// the worker finishes (a span open/close pair). A nil Hook is inert and
// costs nothing.
type Hook func(w int) func()

func (h Hook) Begin(w int) func() {
	if h == nil {
		return func() {}
	}
	return h(w)
}

// This file is the one place the miners start worker goroutines (the node
// goroutines of driver.Run aside): Fan for fork-join work, Go for the one
// worker that outlives its caller's stack frame. Both run the worker through
// runWorker, so a worker's panic is never a process crash.

// runWorker runs fn(w) inside hook's span; a panic in fn becomes the
// worker's error, naming it.
func runWorker(name string, w int, hook Hook, fn func(w int) error) (err error) {
	defer hook.Begin(w)()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s worker %d panicked: %v", name, w, r)
		}
	}()
	return fn(w)
}

// Fan runs fn(w) for every w in [0, workers) and returns once all are done:
// inline on the calling goroutine when workers <= 1, otherwise one goroutine
// per worker. hook brackets each worker; name labels the work in the error a
// panicking worker is turned into. The first error in worker order wins.
func Fan(name string, workers int, hook Hook, fn func(w int) error) error {
	if workers <= 1 {
		return runWorker(name, 0, hook, fn)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runWorker(name, w, hook, fn)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Go starts fn on its own goroutine and sends its error — or its panic, as
// an error — on done, which must have room for it. It exists for the
// count-support receiver, which runs beside its node's scan rather than
// under a fork-join.
func Go(name string, done chan<- error, fn func() error) {
	go func() {
		done <- runWorker(name, 0, nil, func(int) error { return fn() })
	}()
}
