/**
 * @file
 * Resident-set tracking: which pages are in local memory, which of
 * their subpages are valid, and what is still in flight.
 *
 * Storage is hybrid: pages below a dense limit live in a flat array
 * indexed by page id (the common case — trace address spaces are
 * small and dense, and the simulator does a lookup per reference);
 * pages above it fall back to a hash map, so arbitrary 64-bit trace
 * addresses still work.
 */

#ifndef SGMS_MEM_PAGE_TABLE_H
#define SGMS_MEM_PAGE_TABLE_H

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/page.h"
#include "mem/replacement.h"

namespace sgms
{

/**
 * Capacity-limited table of resident pages with subpage state and a
 * replacement policy. The simulator owns the transfer machinery; the
 * table only records state.
 */
class PageTable
{
  public:
    /** Per-resident-page state. */
    struct Frame
    {
        /** Which subpages hold valid data. */
        SubpageBitmap valid;
        /** Subpages with a transfer in flight (bitmask). */
        uint64_t inflight = 0;
        /**
         * All subpages valid. With no watch armed, the kernel's
         * per-reference loop tests this after its one lookup: a
         * complete page needs only recency and the dirty bit.
         */
        bool complete = false;
        /** The page has been written since installation. */
        bool dirty = false;
        /**
         * Subpage faulted on most recently, while the simulator is
         * watching for the first access to a *different* subpage
         * (Figure 7's distance metric); -1 when not watching.
         */
        int16_t watch_from = -1;
        /** Id of the fault that brought this page in (accounting). */
        uint64_t fault_id = 0;
        /** Reference index of the last replacement-policy touch. */
        uint64_t last_touch = 0;

        /** True if subpage @p idx has a transfer in flight. */
        bool
        subpage_inflight(SubpageIndex idx) const
        {
            return inflight & (1ULL << idx);
        }
    };

    /**
     * @param geo      page/subpage geometry
     * @param capacity max resident pages (0 = unlimited, "full-mem")
     * @param policy   replacement policy name (lru/fifo/clock)
     */
    PageTable(const PageGeometry &geo, size_t capacity,
              const std::string &policy = "lru")
        : geo_(geo), capacity_(capacity),
          policy_(make_replacement_policy(policy))
    {}

    /** Frame of @p page, or nullptr if not resident. */
    Frame *
    find(PageId page)
    {
        if (page < dense_.size())
            return dense_present_[page] ? &dense_[page] : nullptr;
        if (page < DENSE_LIMIT)
            return nullptr;
        auto it = overflow_.find(page);
        return it == overflow_.end() ? nullptr : &it->second;
    }

    /** True when installing a page requires an eviction first. */
    bool
    full() const
    {
        return capacity_ != 0 && resident_ >= capacity_;
    }

    /** Number of currently resident pages. */
    size_t resident() const { return resident_; }

    size_t capacity() const { return capacity_; }

    /**
     * Install @p page (must not be resident; table must not be full).
     * The new frame starts with no valid subpages.
     */
    Frame &install(PageId page);

    /** Record a reference for the replacement policy. */
    void touch(PageId page);

    /**
     * Evict the policy's victim; returns its id. If @p state is
     * non-null, the victim's frame state is copied out first (the
     * caller needs the dirty bit for putpage).
     */
    PageId evict(Frame *state = nullptr);

    /** Remove a specific page (testing / invalidation). */
    void erase(PageId page);

    /**
     * Mark subpage @p idx of @p page valid (arrival); updates the
     * complete flag and clears the in-flight bit. The page may have
     * been evicted while the transfer was in flight; returns false in
     * that case (late arrival dropped).
     */
    bool mark_valid(PageId page, SubpageIndex idx);

    /** Mark every subpage of @p page valid. */
    bool mark_all_valid(PageId page);

    const PageGeometry &geometry() const { return geo_; }

    /** Eviction count since construction. */
    uint64_t evictions() const { return evictions_; }

    /**
     * Pre-size storage for a trace expected to touch @p pages pages
     * (trace address spaces are dense from 0, so the footprint also
     * bounds the dense id range). Purely an optimization hint.
     */
    void
    reserve(size_t pages)
    {
        policy_->reserve(pages);
        size_t cap = std::min<size_t>(pages, DENSE_LIMIT);
        if (cap > dense_.size()) {
            dense_.resize(cap);
            dense_present_.resize(cap, 0);
        }
    }

  private:
    /** Pages below this id use the flat array. */
    static constexpr PageId DENSE_LIMIT = 1ULL << 17;

    void remove_storage(PageId page);

    PageGeometry geo_;
    size_t capacity_;
    std::unique_ptr<ReplacementPolicy> policy_;

    std::vector<Frame> dense_;
    std::vector<uint8_t> dense_present_;
    std::unordered_map<PageId, Frame> overflow_;
    size_t resident_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace sgms

#endif // SGMS_MEM_PAGE_TABLE_H
