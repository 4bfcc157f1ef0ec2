#include "verify/items.hh"

#include "support/logging.hh"

namespace codecomp::verify {

ItemMap
mapItems(const DecompressionEngine &engine,
         const compress::CompressedImage &image)
{
    const std::vector<DecodedItem> &items = engine.items();
    ItemMap map;
    map.origOf.assign(items.size(), ItemMap::noIndex);
    for (uint32_t orig = 0; orig < image.addrMap.size(); ++orig)
        if (image.addrMap[orig] != compress::CompressedImage::noItem)
            map.origOf[engine.itemIndexAt(image.addrMap[orig])] = orig;

    map.isStub.assign(items.size(), false);
    map.stubEnd.assign(items.size(), 0);
    uint32_t head = ItemMap::noIndex;
    for (uint32_t i = 0; i < items.size(); ++i) {
        if (map.origOf[i] != ItemMap::noIndex) {
            head = i;
            continue;
        }
        // An unmapped item is a stub continuation; the preceding mapped
        // item is the stub head that inherited the branch's identity.
        map.isStub[i] = true;
        CC_ASSERT(head != ItemMap::noIndex,
                  "compressed stream begins mid-stub");
        map.isStub[head] = true;
        map.stubEnd[head] = items[i].nibbleAddr + items[i].nibbles;
    }
    return map;
}

} // namespace codecomp::verify
