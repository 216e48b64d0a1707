// Fixture: library code conjuring root contexts — every one detaches
// the work from the caller's deadline.
package a

import "context"

func run() error {
	ctx := context.Background() // want `context\.Background\(\) in library code detaches from the caller's deadline`
	return work(ctx)
}

func todo() error {
	return work(context.TODO()) // want `context\.TODO\(\) in library code detaches from the caller's deadline`
}

func work(ctx context.Context) error {
	return ctx.Err()
}

// A background scan detached onto its own root context never sees
// the caller's cancellation — the join blocks until the scan finishes
// on its own.
func detachedPrefetch(scan func(context.Context) (int, error)) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := scan(context.Background()) // want `context\.Background\(\) in library code detaches from the caller's deadline`
		done <- err
	}()
	return done
}
