package server

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	c := newResultCache(4, 1<<20)
	if _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("a", []byte("body-a"))
	got, ok := c.get("a")
	if !ok || string(got) != "body-a" {
		t.Fatalf("get = %q, %t", got, ok)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEntryBoundLRU(t *testing.T) {
	c := newResultCache(3, 1<<20)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.put("k3", []byte("v"))
	if _, ok := c.get("k1"); ok {
		t.Fatal("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := newResultCache(100, 10)
	c.put("a", []byte("aaaa")) // 4 bytes
	c.put("b", []byte("bbbb")) // 8 bytes
	c.put("c", []byte("cccc")) // 12 -> evict oldest until <= 10
	if _, ok := c.get("a"); ok {
		t.Fatal("byte bound not enforced")
	}
	st := c.stats()
	if st.Bytes > 10 {
		t.Fatalf("bytes = %d, over the bound", st.Bytes)
	}
	// A body larger than the whole budget is not cached at all.
	c.put("huge", make([]byte, 11))
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized body should not be cached")
	}
}

func TestCacheRePutRefreshesRecency(t *testing.T) {
	c := newResultCache(2, 1<<20)
	c.put("a", []byte("v"))
	c.put("b", []byte("v"))
	c.put("a", []byte("v")) // refresh, not duplicate
	if st := c.stats(); st.Entries != 2 || st.Bytes != 2 {
		t.Fatalf("re-put changed accounting: %+v", st)
	}
	c.put("c", []byte("v")) // should evict b, the least recent
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (refreshed by re-put)")
	}
}

// TestCacheDigestLinks: a digest finds the entry it was last linked to,
// only a digest hit counts, relinking an entry drops its old digest, and
// eviction drops the evicted entry's digest.
func TestCacheDigestLinks(t *testing.T) {
	c := newResultCache(2, 1<<20)
	d := func(s string) bodyDigest { return sha256.Sum256([]byte(s)) }
	c.link(d("orphan"), "absent") // no entry: nothing to link
	c.put("a", []byte("body-a"))
	c.link(d("a1"), "a")
	if got, ok := c.getDigest(d("a1")); !ok || string(got) != "body-a" {
		t.Fatalf("getDigest(a1) = %q, %t", got, ok)
	}
	if _, ok := c.getDigest(d("orphan")); ok {
		t.Fatal("a digest linked to no entry was found")
	}
	if st := c.stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("digest lookups counted %+v, want 1 hit and no miss", st)
	}
	c.link(d("a2"), "a")
	if _, ok := c.getDigest(d("a1")); ok {
		t.Fatal("relinking kept the entry's previous digest")
	}
	c.put("b", []byte("body-b"))
	c.link(d("b1"), "b")
	c.put("c", []byte("body-c")) // evicts a, the least recently used
	if _, ok := c.getDigest(d("a2")); ok {
		t.Fatal("eviction kept the evicted entry's digest")
	}
	if len(c.byDigest) > len(c.m) {
		t.Fatalf("%d digests over %d entries", len(c.byDigest), len(c.m))
	}
}
