// Fixture: goroutines with no reachable stop signal — bare polling
// loops and unjoinable waiters that outlive every shutdown path.
package a

import (
	"sync"
	"time"
)

type poller struct {
	hits int
	wg   sync.WaitGroup
}

func (p *poller) poll() { p.hits++ }

func spawnLoop(p *poller) {
	go func() { // want `goroutine has no reachable stop signal`
		for {
			p.poll()
		}
	}()
}

func spawnSleepLoop(p *poller) {
	go func() { // want `goroutine has no reachable stop signal`
		for {
			time.Sleep(time.Second)
			p.poll()
		}
	}()
}

// spin loops forever with no signal; the call graph carries the fact
// to the go statement on the named target.
func (p *poller) spin() {
	for {
		p.poll()
	}
}

func spawnNamed(p *poller) {
	go p.spin() // want `goroutine spin has no reachable stop signal`
}

func spawnWaiter(p *poller) {
	go func() { // want `goroutine has no reachable stop signal`
		p.wg.Wait()
		p.poll()
	}()
}

// The broken background-scan shape: a scan goroutine that retries a
// failed scan forever instead of reporting the error through its done
// channel and finishing — the caller's join would block on a
// goroutine with no reachable stop signal.
func spawnRetryingScan(p *poller, scan func() error) {
	done := make(chan struct{})
	go func() { // want `goroutine has no reachable stop signal`
		for {
			if scan() == nil {
				p.poll()
			}
		}
	}()
	_ = done
}
