/**
 * @file
 * Trace recorder: accumulates MemoryEvents during a training run.
 *
 * Events are stored once, as columns (one vector per field, op names
 * interned), from the moment they are recorded. An
 * analysis::TraceView seals the recorder by taking shared ownership
 * of those columns instead of copying them; the recorder copies its
 * columns before its next write while a view still shares them
 * (copy-on-write), so a sealed snapshot never changes.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "trace/event.h"

namespace pinpoint {
namespace trace {

/** Id of an interned op name; ids count up from 0. */
using OpId = std::uint32_t;

/**
 * A recorded trace in columnar (SoA) form: entry i of every per-event
 * column describes event i. Written only by TraceRecorder; read-only
 * once shared with an analysis::TraceView.
 */
struct EventColumns {
    std::vector<TimeNs> time;
    std::vector<EventKind> kind;
    std::vector<BlockId> block;
    std::vector<DevPtr> ptr;
    std::vector<std::size_t> size;
    std::vector<TensorId> tensor;
    std::vector<Category> category;
    std::vector<std::uint32_t> iteration;
    std::vector<std::int32_t> op_index;
    /** Per-event index into op_names. */
    std::vector<OpId> op_id;
    /** Interned op names, in first-intern order. */
    std::vector<std::string> op_names;
    /** Event indices per kind, in trace order. */
    std::array<std::vector<std::size_t>, 4> by_kind{};

    /** @return the number of events. */
    std::size_t rows() const { return time.size(); }

    /** @return event @p i as a MemoryEvent (op name copied). */
    MemoryEvent event(std::size_t i) const;
};

/**
 * Read-only random-access range over a recorder's events, yielding
 * each MemoryEvent by value. Invalidated, like a vector's iterators,
 * by the next write to the recorder.
 */
class EventRange
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = MemoryEvent;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = MemoryEvent;

        iterator() = default;
        iterator(const EventColumns *cols, std::size_t i)
            : cols_(cols), i_(i)
        {}

        MemoryEvent operator*() const { return cols_->event(i_); }
        MemoryEvent operator[](difference_type n) const
        {
            return cols_->event(i_ + static_cast<std::size_t>(n));
        }
        iterator &operator++()
        {
            ++i_;
            return *this;
        }
        iterator operator++(int)
        {
            iterator old = *this;
            ++i_;
            return old;
        }
        iterator &operator--()
        {
            --i_;
            return *this;
        }
        iterator operator--(int)
        {
            iterator old = *this;
            --i_;
            return old;
        }
        iterator &operator+=(difference_type n)
        {
            i_ += static_cast<std::size_t>(n);
            return *this;
        }
        iterator &operator-=(difference_type n)
        {
            i_ -= static_cast<std::size_t>(n);
            return *this;
        }
        friend iterator operator+(iterator it, difference_type n)
        {
            return it += n;
        }
        friend iterator operator+(difference_type n, iterator it)
        {
            return it += n;
        }
        friend iterator operator-(iterator it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type operator-(const iterator &a,
                                         const iterator &b)
        {
            return static_cast<difference_type>(a.i_) -
                   static_cast<difference_type>(b.i_);
        }
        friend bool operator==(const iterator &a, const iterator &b)
        {
            return a.i_ == b.i_;
        }
        friend bool operator!=(const iterator &a, const iterator &b)
        {
            return a.i_ != b.i_;
        }
        friend bool operator<(const iterator &a, const iterator &b)
        {
            return a.i_ < b.i_;
        }
        friend bool operator>(const iterator &a, const iterator &b)
        {
            return a.i_ > b.i_;
        }
        friend bool operator<=(const iterator &a, const iterator &b)
        {
            return a.i_ <= b.i_;
        }
        friend bool operator>=(const iterator &a, const iterator &b)
        {
            return a.i_ >= b.i_;
        }

      private:
        const EventColumns *cols_ = nullptr;
        std::size_t i_ = 0;
    };
    using const_iterator = iterator;

    explicit EventRange(const EventColumns &cols) : cols_(&cols) {}

    iterator begin() const { return iterator(cols_, 0); }
    iterator end() const { return iterator(cols_, size()); }
    std::size_t size() const { return cols_->rows(); }
    bool empty() const { return size() == 0; }
    MemoryEvent operator[](std::size_t i) const { return cols_->event(i); }
    MemoryEvent front() const { return cols_->event(0); }
    MemoryEvent back() const { return cols_->event(size() - 1); }

  private:
    const EventColumns *cols_;
};

/**
 * Append-only store of memory behaviors. The engine (and the
 * instrumented allocator wrapper) push events here; the analysis
 * module consumes the finished sequence. Events are expected in
 * non-decreasing time order and the recorder enforces that, because
 * every downstream computation (ATIs, Gantt, breakdown) assumes it.
 *
 * Copies of a recorder share columns until one of them writes, then
 * diverge (copy-on-write), exactly as if each had its own events.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /**
     * Appends @p event, interning @p event.op.
     * @throws Error if @p event.time precedes the previous event.
     */
    void record(const MemoryEvent &event);

    /**
     * Appends @p event under the interned name @p op; @p event.op is
     * not read.
     * @throws Error if @p event.time precedes the previous event, or
     * @p op was not returned by intern_op on this recorder.
     */
    void record(const MemoryEvent &event, OpId op);

    /**
     * @return the id of op name @p name, interning it on first use.
     * Ids count up in first-intern order, so a caller that interns
     * a name just before recording it gets ids in first-appearance
     * order, as record(MemoryEvent) does. Ids stay valid across
     * clear().
     */
    OpId intern_op(std::string_view name);

    /**
     * @return all recorded events in time order, each yielded by
     * value.
     */
    EventRange events() const { return EventRange(*share()); }

    /** @return number of recorded events. */
    std::size_t size() const { return cols_ ? cols_->rows() : 0; }

    /** @return true when nothing was recorded. */
    bool empty() const { return size() == 0; }

    /** Drops all recorded events; interned op ids stay valid. */
    void clear();

    /**
     * @return the columns, shared: the recorder copies them before
     * its next write, so the returned snapshot never changes.
     */
    std::shared_ptr<const EventColumns> share() const;

  private:
    /** @return the columns, writable and owned by this recorder only. */
    EventColumns &mutable_columns();

    /** Null until the first write. */
    std::shared_ptr<EventColumns> cols_;
    /** Op name → id; names are few, so the keys own copies. */
    std::unordered_map<std::string, OpId> op_ids_;
};

}  // namespace trace
}  // namespace pinpoint
