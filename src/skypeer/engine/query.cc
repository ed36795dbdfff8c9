#include "skypeer/engine/query.h"

namespace skypeer {

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kNaive:
      return "naive";
    case Variant::kFTFM:
      return "FTFM";
    case Variant::kFTPM:
      return "FTPM";
    case Variant::kRTFM:
      return "RTFM";
    case Variant::kRTPM:
      return "RTPM";
    case Variant::kPipeline:
      return "PIPE";
  }
  return "unknown";
}

bool UsesRefinedThreshold(Variant variant) {
  return variant == Variant::kRTFM || variant == Variant::kRTPM;
}

bool UsesProgressiveMerging(Variant variant) {
  return variant == Variant::kFTPM || variant == Variant::kRTPM;
}

bool SupportsParallelLocalScan(Variant variant) {
  return variant == Variant::kNaive || variant == Variant::kFTFM ||
         variant == Variant::kFTPM;
}

}  // namespace skypeer
