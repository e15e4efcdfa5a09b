#include "trace/recorder.h"

#include "core/check.h"
#include "trace/event.h"

namespace pinpoint {
namespace trace {

MemoryEvent
EventColumns::event(std::size_t i) const
{
    MemoryEvent e;
    e.time = time[i];
    e.kind = kind[i];
    e.block = block[i];
    e.ptr = ptr[i];
    e.size = size[i];
    e.tensor = tensor[i];
    e.category = category[i];
    e.iteration = iteration[i];
    e.op_index = op_index[i];
    e.op = op_names[op_id[i]];
    return e;
}

EventColumns &
TraceRecorder::mutable_columns()
{
    // A view (or a copied recorder) may still share the columns:
    // write to a private copy so that snapshot never changes.
    if (!cols_)
        cols_ = std::make_shared<EventColumns>();
    else if (cols_.use_count() > 1)
        cols_ = std::make_shared<EventColumns>(*cols_);
    return *cols_;
}

void
TraceRecorder::record(const MemoryEvent &event)
{
    record(event, intern_op(event.op));
}

void
TraceRecorder::record(const MemoryEvent &event, OpId op)
{
    PP_CHECK(empty() || event.time >= cols_->time.back(),
             "events must be recorded in time order: got "
                 << event.time << " after " << cols_->time.back());
    EventColumns &c = mutable_columns();
    PP_CHECK(op < c.op_names.size(), "op id " << op << " was not interned");
    c.by_kind[static_cast<std::size_t>(event.kind)].push_back(
        c.time.size());
    c.time.push_back(event.time);
    c.kind.push_back(event.kind);
    c.block.push_back(event.block);
    c.ptr.push_back(event.ptr);
    c.size.push_back(event.size);
    c.tensor.push_back(event.tensor);
    c.category.push_back(event.category);
    c.iteration.push_back(event.iteration);
    c.op_index.push_back(event.op_index);
    c.op_id.push_back(op);
}

OpId
TraceRecorder::intern_op(std::string_view name)
{
    std::string key(name);
    const auto it = op_ids_.find(key);
    if (it != op_ids_.end())
        return it->second;
    EventColumns &c = mutable_columns();
    const auto id = static_cast<OpId>(c.op_names.size());
    c.op_names.push_back(key);
    op_ids_.emplace(std::move(key), id);
    return id;
}

void
TraceRecorder::clear()
{
    if (!cols_)
        return;
    // Interned names survive, so ids already handed out stay valid.
    auto fresh = std::make_shared<EventColumns>();
    fresh->op_names = cols_.use_count() > 1 ? cols_->op_names
                                            : std::move(cols_->op_names);
    cols_ = std::move(fresh);
}

std::shared_ptr<const EventColumns>
TraceRecorder::share() const
{
    // Recorders that never wrote share one empty snapshot.
    static const auto kEmpty = std::make_shared<const EventColumns>();
    if (!cols_)
        return kEmpty;
    return cols_;
}

}  // namespace trace
}  // namespace pinpoint
