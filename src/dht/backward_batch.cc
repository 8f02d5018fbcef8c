#include "dht/backward_batch.h"

namespace dhtjoin {

// The 8-lane default and the 1-lane engine of single-target deepenings
// are the only widths the library instantiates; keeping the definitions
// here spares every including TU the template instantiation cost.
template class BackwardWalkerBatchT<8>;
template class BackwardWalkerBatchT<1>;

}  // namespace dhtjoin
