/**
 * @file
 * Differential check of the kernel's paging decisions against a
 * deliberately simple reference pager.
 *
 * The reference pager is an array of frames with an LRU stamp each.
 * It knows nothing of fetch timing, subpages or the network: a
 * faulted page is resident from its faulting reference on. It applies
 * the kernel's replacement rules as stated, not as coded: a fault
 * installs the page most recently used, a later reference to a
 * resident page refreshes its recency only if the previous reference
 * was to another page and its last refresh (or the fault that
 * installed it) is at least 64 references old, and any write dirties
 * the page until it is evicted. Fed the
 * same trace under the fullpage policy (one client, so nothing
 * reorders references), the kernel must fault, evict and put dirty
 * pages exactly as often as this pager does.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.h"
#include "core/simulator.h"
#include "trace/apps.h"
#include "trace/trace.h"

namespace sgms
{
namespace
{

/** The kernel's minimum reference distance between recency refreshes. */
constexpr uint64_t TOUCH_GRANULARITY = 64;

/** Array-based LRU pager; see the file comment. */
class ReferencePager
{
  public:
    struct Counts
    {
        uint64_t faults = 0;
        uint64_t evictions = 0;
        uint64_t dirty_evictions = 0;
    };

    ReferencePager(size_t frames, uint32_t page_size)
        : capacity_(frames), page_size_(page_size)
    {}

    void
    reference(Addr addr, bool write)
    {
        PageId page = addr / page_size_;
        if (page >= slot_of_.size())
            slot_of_.resize(page + 1, NONE);
        size_t slot = slot_of_[page];
        if (slot == NONE) {
            slot = fault(page);
        } else if (page != last_page_ &&
                   ref_ - frames_[slot].last_touch >= TOUCH_GRANULARITY) {
            frames_[slot].stamp = ++clock_;
            frames_[slot].last_touch = ref_;
        }
        if (write)
            frames_[slot].dirty = true;
        last_page_ = page;
        ++ref_;
    }

    /** Replay @p trace from its start. */
    Counts
    run(TraceSource &trace)
    {
        trace.reset();
        TraceEvent ev;
        while (trace.next(ev))
            reference(ev.addr, ev.write);
        return counts_;
    }

  private:
    static constexpr size_t NONE = ~size_t{0};

    struct Frame
    {
        PageId page = 0;
        uint64_t stamp = 0;      // larger = more recently used
        uint64_t last_touch = 0; // reference index of the last refresh
        bool dirty = false;
    };

    size_t
    fault(PageId page)
    {
        ++counts_.faults;
        size_t slot = frames_.size();
        if (capacity_ != 0 && frames_.size() == capacity_) {
            slot = 0;
            for (size_t i = 1; i < frames_.size(); ++i) {
                if (frames_[i].stamp < frames_[slot].stamp)
                    slot = i;
            }
            ++counts_.evictions;
            if (frames_[slot].dirty)
                ++counts_.dirty_evictions;
            slot_of_[frames_[slot].page] = NONE;
        } else {
            frames_.emplace_back();
        }
        frames_[slot] = Frame{page, ++clock_, ref_, false};
        slot_of_[page] = slot;
        return slot;
    }

    size_t capacity_;
    uint32_t page_size_;
    std::vector<Frame> frames_;
    std::vector<size_t> slot_of_; // page id -> frame slot, or NONE
    PageId last_page_ = ~PageId{0};
    uint64_t ref_ = 0;
    uint64_t clock_ = 0;
    Counts counts_;
};

/** One fullpage client with putpage traffic on (the default). */
SimConfig
fullpage_config(size_t mem_pages)
{
    SimConfig cfg;
    cfg.policy = "fullpage";
    cfg.subpage_size = cfg.page_size;
    cfg.mem_pages = mem_pages;
    return cfg;
}

/** Assert the kernel and the reference pager agree on @p trace. */
ReferencePager::Counts
expect_agreement(TraceSource &trace, const SimConfig &cfg)
{
    SimResult r = Simulator(cfg).run(trace);
    ReferencePager oracle(cfg.mem_pages, cfg.page_size);
    ReferencePager::Counts want = oracle.run(trace);
    EXPECT_EQ(r.page_faults, want.faults);
    EXPECT_EQ(r.evictions, want.evictions);
    EXPECT_EQ(r.putpages, want.dirty_evictions);
    return want;
}

TEST(PagerOracle, KernelMatchesReferencePagerOnEveryApp)
{
    for (const std::string &app : app_names()) {
        SCOPED_TRACE(app);
        Experiment ex;
        ex.app = app;
        ex.scale = 0.02;
        ex.policy = "fullpage";
        ex.mem = MemConfig::Half;
        SimConfig cfg = ex.config();
        ASSERT_TRUE(cfg.gms.putpage_traffic);
        ASSERT_GT(cfg.mem_pages, 0u);
        auto trace = ex.trace();
        ReferencePager::Counts c = expect_agreement(*trace, cfg);
        // Half memory must actually page, or the check is empty.
        EXPECT_GT(c.evictions, 0u);
        EXPECT_GT(c.dirty_evictions, 0u);
    }
}

constexpr Addr PAGE = 8192;

TEST(PagerOracle, SamePageRunDoesNotRefreshRecency)
{
    // A, B, then a run on A far longer than the touch granularity,
    // then C: the run never refreshes A, so A (the older install) is
    // the victim and the final reference to B hits.
    VectorTrace t;
    t.push(0 * PAGE, false);
    t.push(1 * PAGE, false);
    for (uint64_t i = 0; i < 4 * TOUCH_GRANULARITY; ++i)
        t.push(0 * PAGE + (i % 8) * 1024, false);
    t.push(2 * PAGE, false);
    t.push(1 * PAGE, false);
    ReferencePager::Counts c = expect_agreement(t, fullpage_config(2));
    EXPECT_EQ(c.faults, 3u);
    EXPECT_EQ(c.evictions, 1u);

    // Control: one reference away from A and back refreshes it once
    // the granularity has passed, so C evicts B instead and the final
    // reference to B faults.
    VectorTrace u;
    u.push(0 * PAGE, false);
    u.push(1 * PAGE, false);
    for (uint64_t i = 0; i < 4 * TOUCH_GRANULARITY; ++i)
        u.push(1 * PAGE, false);
    u.push(0 * PAGE, false);
    u.push(2 * PAGE, false);
    u.push(1 * PAGE, false);
    c = expect_agreement(u, fullpage_config(2));
    EXPECT_EQ(c.faults, 4u);
    EXPECT_EQ(c.evictions, 2u);
}

TEST(PagerOracle, WriteToCompletePageMakesEvictionDirty)
{
    // A is complete once its fault returns; the write comes on the
    // next reference, to the same page, and again after a reference
    // to B. Either way evicting A ships a dirty page.
    for (bool same_page : {true, false}) {
        SCOPED_TRACE(same_page ? "same page" : "after another page");
        VectorTrace t;
        t.push(0 * PAGE, false);
        if (same_page) {
            t.push(0 * PAGE + 4096, true);
            t.push(1 * PAGE, false);
        } else {
            t.push(1 * PAGE, false);
            t.push(0 * PAGE + 4096, true);
        }
        t.push(2 * PAGE, false);
        ReferencePager::Counts c =
            expect_agreement(t, fullpage_config(2));
        EXPECT_EQ(c.evictions, 1u);
        EXPECT_EQ(c.dirty_evictions, 1u);
    }

    // Control: no write, no putpage.
    VectorTrace t;
    t.push(0 * PAGE, false);
    t.push(0 * PAGE + 4096, false);
    t.push(1 * PAGE, false);
    t.push(2 * PAGE, false);
    ReferencePager::Counts c = expect_agreement(t, fullpage_config(2));
    EXPECT_EQ(c.evictions, 1u);
    EXPECT_EQ(c.dirty_evictions, 0u);
}

} // namespace
} // namespace sgms
