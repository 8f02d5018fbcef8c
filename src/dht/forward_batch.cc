#include "dht/forward_batch.h"

namespace dhtjoin {

// The 8-lane default is the only width the library instantiates;
// keeping its definitions here spares every including TU the template
// instantiation cost.
template class ForwardWalkerBatchT<8>;

}  // namespace dhtjoin
