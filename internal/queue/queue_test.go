package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// offer, put and take move one record through the batch API — a single
// record is a one-element batch, as for every caller of the queue.
func offer[T any](q *Queue[T], v T) bool { return q.OfferBatch([]T{v}) == 1 }

func put[T any](q *Queue[T], v T) { q.PutBatch([]T{v}) }

func take[T any](q *Queue[T]) (T, bool) {
	b, ok := q.TakeBatch(nil, 1, 0)
	if !ok {
		var zero T
		return zero, false
	}
	return b[0], true
}

// tryTake is take that returns at once on an empty queue; callers must be
// the queue's only consumer.
func tryTake[T any](q *Queue[T]) (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return take(q)
}

func TestOfferTake(t *testing.T) {
	q := New[int](4)
	if !offer(q, 1) || !offer(q, 2) {
		t.Fatal("Offer failed with space available")
	}
	v, ok := take(q)
	if !ok || v != 1 {
		t.Fatalf("Take = %d,%v; want 1,true", v, ok)
	}
	v, ok = take(q)
	if !ok || v != 2 {
		t.Fatalf("Take = %d,%v; want 2,true", v, ok)
	}
}

func TestOfferDropsWhenFull(t *testing.T) {
	q := New[int](2)
	offer(q, 1)
	offer(q, 2)
	if offer(q, 3) {
		t.Fatal("Offer succeeded on a full queue")
	}
	st := q.Stats()
	if st.Enqueued != 2 || st.Dropped != 1 {
		t.Fatalf("Stats = %+v; want Enqueued 2, Dropped 1", st)
	}
	if st.Offered() != 3 || st.Lost() != 1 {
		t.Fatalf("Offered/Lost = %d/%d, want 3/1", st.Offered(), st.Lost())
	}
}

func TestTryTakeEmpty(t *testing.T) {
	q := New[string](1)
	if _, ok := tryTake(q); ok {
		t.Fatal("TryTake on empty queue returned ok")
	}
	offer(q, "x")
	v, ok := tryTake(q)
	if !ok || v != "x" {
		t.Fatalf("TryTake = %q,%v", v, ok)
	}
}

func TestCloseDrains(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		offer(q, i)
	}
	q.Close()
	q.Close() // idempotent
	for i := 0; i < 5; i++ {
		v, ok := take(q)
		if !ok || v != i {
			t.Fatalf("drain %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := take(q); ok {
		t.Fatal("Take after drain returned ok")
	}
	if st := q.Stats(); st.Dequeued != 5 {
		t.Fatalf("Dequeued = %d, want 5", st.Dequeued)
	}
}

func TestOfferAfterCloseCountsDrop(t *testing.T) {
	q := New[int](1)
	offer(q, 1) // fill so the closed-channel send branch is not taken
	q.Close()
	if offer(q, 2) {
		t.Fatal("Offer after close on full queue accepted")
	}
	if st := q.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestPutBlocksUntilSpace(t *testing.T) {
	q := New[int](1)
	put(q, 1)
	done := make(chan struct{})
	go func() {
		put(q, 2) // blocks until Take below
		close(done)
	}()
	if v, _ := take(q); v != 1 {
		t.Fatal("unexpected head")
	}
	<-done
	if v, _ := take(q); v != 2 {
		t.Fatal("blocked Put value lost")
	}
}

func TestCapacityClamp(t *testing.T) {
	q := New[int](0)
	if got := cap(q.ch); got != 1 {
		t.Fatalf("capacity = %d, want 1", got)
	}
}

func TestFill(t *testing.T) {
	q := New[int](4)
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d", q.Len())
	}
	offer(q, 1)
	offer(q, 2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New[int](128)
	const producers, perProducer, consumers = 8, 1000, 4
	var produced, consumed sync.WaitGroup
	var got atomic64
	consumed.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func() {
			defer consumed.Done()
			for {
				if _, ok := take(q); !ok {
					return
				}
				got.add(1)
			}
		}()
	}
	produced.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer produced.Done()
			for i := 0; i < perProducer; i++ {
				put(q, i)
			}
		}()
	}
	produced.Wait()
	q.Close()
	consumed.Wait()
	st := q.Stats()
	if st.Enqueued != producers*perProducer {
		t.Fatalf("Enqueued = %d, want %d", st.Enqueued, producers*perProducer)
	}
	if got.load() != producers*perProducer || st.Dequeued != producers*perProducer {
		t.Fatalf("consumed %d (stats %d), want %d", got.load(), st.Dequeued, producers*perProducer)
	}
}

// Property: counters always satisfy Offered == Enqueued + Dropped and
// Dequeued <= Enqueued, for arbitrary offer/take interleavings.
func TestQuickCounterInvariants(t *testing.T) {
	f := func(ops []bool, capacity uint8) bool {
		q := New[int]((int(capacity) % 8) + 1)
		for i, isOffer := range ops {
			if isOffer {
				offer(q, i)
			} else {
				tryTake(q)
			}
		}
		st := q.Stats()
		if st.Offered() != st.Enqueued+st.Dropped {
			return false
		}
		if st.Dequeued > st.Enqueued {
			return false
		}
		return int(st.Enqueued-st.Dequeued) == q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferBatchAcceptsAndDrops(t *testing.T) {
	q := New[int](4)
	if got := q.OfferBatch([]int{1, 2, 3}); got != 3 {
		t.Fatalf("accepted = %d", got)
	}
	// Only one slot left: the batch is partially accepted, rest dropped.
	if got := q.OfferBatch([]int{4, 5, 6}); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
	st := q.Stats()
	if st.Enqueued != 4 || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := q.OfferBatch(nil); got != 0 {
		t.Fatalf("empty batch accepted %d", got)
	}
	q.Close()
	if got := q.OfferBatch([]int{7, 8}); got != 0 {
		t.Fatalf("closed queue accepted %d", got)
	}
	if st := q.Stats(); st.Dropped != 4 {
		t.Fatalf("post-close stats = %+v", st)
	}
}

func TestTakeBatchDrainsAvailable(t *testing.T) {
	q := New[int](16)
	for i := 0; i < 5; i++ {
		put(q, i)
	}
	buf, ok := q.TakeBatch(nil, 3, 0)
	if !ok || len(buf) != 3 || buf[0] != 0 || buf[2] != 2 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
	// Fewer available than max: returns what is there without waiting.
	buf, ok = q.TakeBatch(buf[:0], 10, 0)
	if !ok || len(buf) != 2 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
	if st := q.Stats(); st.Dequeued != 5 {
		t.Fatalf("dequeued = %d", st.Dequeued)
	}
}

func TestTakeBatchBlocksForFirst(t *testing.T) {
	q := New[int](4)
	done := make(chan []int, 1)
	go func() {
		buf, _ := q.TakeBatch(nil, 4, 0)
		done <- buf
	}()
	time.Sleep(10 * time.Millisecond) // consumer is parked on an empty queue
	put(q, 42)
	select {
	case buf := <-done:
		if len(buf) != 1 || buf[0] != 42 {
			t.Fatalf("batch = %v", buf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TakeBatch never woke up")
	}
}

func TestTakeBatchWaitGathersStragglers(t *testing.T) {
	q := New[int](16)
	put(q, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		put(q, 2)
	}()
	// With a generous wait the late second record joins the batch.
	buf, ok := q.TakeBatch(nil, 2, time.Second)
	if !ok || len(buf) != 2 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
}

func TestTakeBatchWaitBounded(t *testing.T) {
	q := New[int](16)
	put(q, 1)
	start := time.Now()
	buf, ok := q.TakeBatch(nil, 8, 20*time.Millisecond)
	if !ok || len(buf) != 1 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait unbounded: %v", elapsed)
	}
}

func TestTakeBatchClosedQueue(t *testing.T) {
	q := New[int](4)
	put(q, 1)
	q.Close()
	buf, ok := q.TakeBatch(nil, 4, 0)
	if !ok || len(buf) != 1 {
		t.Fatalf("drain batch = %v ok=%v", buf, ok)
	}
	if buf, ok := q.TakeBatch(buf[:0], 4, 0); ok || len(buf) != 0 {
		t.Fatalf("closed+drained returned %v ok=%v", buf, ok)
	}
}

// small atomic helper keeping the test dependency-free
type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func BenchmarkOfferTake(b *testing.B) {
	q := New[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		// A goroutine takes only after its own offer was accepted, so the
		// blocking take always finds a record.
		for pb.Next() {
			if offer(q, 1) {
				take(q)
			}
		}
	})
}

func TestPutBatchBlocksUntilSpace(t *testing.T) {
	q := New[int](2)
	done := make(chan int, 1)
	go func() { done <- q.PutBatch([]int{1, 2, 3, 4}) }()
	select {
	case <-done:
		t.Fatal("PutBatch returned with full buffer")
	case <-time.After(20 * time.Millisecond):
	}
	// Drain two; the blocked producer finishes.
	for i := 0; i < 2; i++ {
		if _, ok := take(q); !ok {
			t.Fatal("take failed")
		}
	}
	for i := 0; i < 2; i++ {
		if v, ok := take(q); !ok || v != i+3 {
			t.Fatalf("take = %d, %v", v, ok)
		}
	}
	if n := <-done; n != 4 {
		t.Fatalf("PutBatch = %d, want 4", n)
	}
	st := q.Stats()
	if st.Enqueued != 4 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutBatchAfterCloseCountsDrops(t *testing.T) {
	q := New[int](4)
	q.Close()
	if n := q.PutBatch([]int{1, 2, 3}); n != 0 {
		t.Fatalf("PutBatch on closed = %d", n)
	}
	if st := q.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
}

func TestPutBatchEmpty(t *testing.T) {
	q := New[int](1)
	if n := q.PutBatch(nil); n != 0 {
		t.Fatalf("PutBatch(nil) = %d", n)
	}
}
