package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireImmediate(t *testing.T) {
	c := NewController(100, 4)
	rel, err := c.Acquire(context.Background(), 60)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got := c.Stats().InFlightBytes; got != 60 {
		t.Fatalf("inflight = %d, want 60", got)
	}
	rel()
	rel() // idempotent
	if got := c.Stats().InFlightBytes; got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

func TestAcquireQueuesFIFO(t *testing.T) {
	c := NewController(100, 4)
	rel1, err := c.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		// Start waiter i only once the i-1 before it are queued, so the
		// queue order is deterministic however the host schedules them.
		waitDepth(t, c, i-1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Acquire(context.Background(), 100)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}()
	}
	waitDepth(t, c, 3)
	rel1()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("admission order = %v, want [1 2 3]", order)
	}
	st := c.Stats()
	if st.Waited != 3 {
		t.Fatalf("waited = %d, want 3", st.Waited)
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	c := NewController(10, 1)
	rel, _ := c.Acquire(context.Background(), 10)
	defer rel()

	queued := make(chan struct{})
	go func() {
		close(queued)
		rel2, err := c.Acquire(context.Background(), 5)
		if err == nil {
			rel2()
		}
	}()
	<-queued
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c.Acquire(context.Background(), 5)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := c.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestQueueCancelReleasesSlotAndUnblocksBehind(t *testing.T) {
	c := NewController(10, 4)
	rel, _ := c.Acquire(context.Background(), 10)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// Big waiter at the head of the queue.
		_, err := c.Acquire(ctx, 10)
		errc <- err
	}()
	waitDepth(t, c, 1)

	var got atomic.Bool
	go func() {
		// Small waiter behind it; fits as soon as the head leaves.
		rel2, err := c.Acquire(context.Background(), 2)
		if err != nil {
			t.Errorf("small waiter: %v", err)
			return
		}
		got.Store(true)
		rel2()
	}()
	waitDepth(t, c, 2)

	// Cancel the head. The small waiter still cannot fit (holder has the
	// full budget), but once the holder releases it must be admitted.
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	rel()
	deadline := time.Now().Add(2 * time.Second)
	for !got.Load() {
		if time.Now().After(deadline) {
			t.Fatal("waiter behind canceled head never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Stats().Canceled; got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
}

func TestDeadlineWhileQueued(t *testing.T) {
	c := NewController(10, 4)
	rel, _ := c.Acquire(context.Background(), 10)
	defer rel()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Acquire(ctx, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestOversizedWeightClamped(t *testing.T) {
	c := NewController(100, 4)
	rel, err := c.Acquire(context.Background(), 1<<40)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()
	st := c.Stats()
	if st.InFlightBytes != 100 || st.HighWaterBytes != 100 {
		t.Fatalf("inflight=%d high=%d, want 100/100", st.InFlightBytes, st.HighWaterBytes)
	}
}

func TestHighWaterNeverExceedsCapacity(t *testing.T) {
	c := NewController(64, 64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rel, err := c.Acquire(context.Background(), 8)
				if err != nil {
					continue
				}
				rel()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.HighWaterBytes > st.CapacityBytes {
		t.Fatalf("high water %d exceeds capacity %d", st.HighWaterBytes, st.CapacityBytes)
	}
	if st.InFlightBytes != 0 || st.QueueDepth != 0 {
		t.Fatalf("leaked: inflight=%d queue=%d", st.InFlightBytes, st.QueueDepth)
	}
}

func TestTryAcquire(t *testing.T) {
	c := NewController(10, 4)
	rel, ok := c.TryAcquire(10)
	if !ok {
		t.Fatal("TryAcquire should succeed on empty controller")
	}
	if _, ok := c.TryAcquire(1); ok {
		t.Fatal("TryAcquire should fail when budget exhausted")
	}
	rel()
	if _, ok := c.TryAcquire(1); !ok {
		t.Fatal("TryAcquire should succeed after release")
	}
}

func waitDepth(t *testing.T, c *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want %d", c.Stats().QueueDepth, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJitterBounds(t *testing.T) {
	j := NewJitter(1)
	base := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := j.Around(base)
		if d < base/2 || d >= base*3/2 {
			t.Fatalf("Around out of bounds: %v", d)
		}
		iv := j.Interval(base)
		if iv < 85*time.Millisecond || iv >= 115*time.Millisecond {
			t.Fatalf("Interval out of bounds: %v", iv)
		}
	}
	// Seeded determinism: same seed, same sequence.
	a, b := NewJitter(7), NewJitter(7)
	for i := 0; i < 10; i++ {
		if a.Around(base) != b.Around(base) {
			t.Fatal("seeded jitter not deterministic")
		}
	}
}
